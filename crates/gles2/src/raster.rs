//! The rasterisation pipeline: vertex shading, primitive assembly,
//! triangle rasterisation with a shared-edge-exact top-left fill rule,
//! perspective-correct varying interpolation and fragment dispatch.
//!
//! This is "Figure 1" of the paper as executable code: the programmable
//! vertex and fragment stages run through the `gpes-glsl` executors, one
//! batched loop per stage; the fixed-function stages (assembly,
//! rasterisation, framebuffer conversion) are implemented here.
//!
//! Conformance notes for the GPGPU use case:
//!
//! * Only triangle primitives exist ([`PrimitiveMode`]) — limitation #2 of
//!   the paper. A screen-covering quad must be drawn as two triangles, and
//!   the top-left fill rule guarantees each pixel on the shared diagonal is
//!   shaded exactly once.
//! * There is no near-plane clipping: triangles with any `w ≤ 0` vertex are
//!   dropped. GPGPU geometry is always drawn with `w = 1`.

use crate::convert::{float_to_texel, StoreRounding};
use crate::error::GlError;
use crate::program::Program;
use crate::texture::Texture;
use gpes_glsl::exec::{ExecLimits, FloatModel, OpProfile, TextureAccess};
use gpes_glsl::interp::Interpreter;
use gpes_glsl::spmd::{BatchError, SpmdVm, MAX_LANES};
use gpes_glsl::{Type, Value};
use std::collections::HashMap;

/// Which shader executor runs the programmable stages.
///
/// Both produce bit-identical results and identical [`OpProfile`]s (the
/// differential suites assert it across every float model): the
/// tree-walker is the reference oracle, and the SPMD VM shades up to
/// [`gpes_glsl::spmd::MAX_LANES`] vertices or fragments per dispatch
/// with masked divergence — the default, mirroring how mobile GPUs
/// extract shader throughput (QPU-style lane parallelism).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Tree-walking interpreter ([`gpes_glsl::interp::Interpreter`]),
    /// one invocation per dispatch.
    TreeWalker,
    /// SPMD bytecode VM ([`gpes_glsl::spmd::SpmdVm`]): `lanes`
    /// invocations per dispatch (clamped to `1..=8`), in both stages.
    Spmd {
        /// Invocations shaded per VM dispatch.
        lanes: u8,
    },
}

impl Default for ExecMode {
    fn default() -> Self {
        ExecMode::Spmd { lanes: 8 }
    }
}

impl ExecMode {
    /// Reads the `GPES_EXECUTOR` override (mirroring
    /// [`Dispatch::from_env`]): `tree`/`treewalker`/`interp`, `spmd`
    /// (8 lanes) or `spmdN` for N lanes. Returns `None` when unset or
    /// unrecognised.
    pub fn from_env() -> Option<ExecMode> {
        Self::parse(std::env::var("GPES_EXECUTOR").ok()?.as_str())
    }

    fn parse(s: &str) -> Option<ExecMode> {
        match s {
            "tree" | "treewalker" | "interp" => Some(ExecMode::TreeWalker),
            "spmd" => Some(ExecMode::Spmd { lanes: 8 }),
            _ => {
                let n = s.strip_prefix("spmd")?.parse::<u8>().ok()?;
                Some(ExecMode::Spmd {
                    lanes: n.clamp(1, MAX_LANES as u8),
                })
            }
        }
    }

    /// Lane width: the SPMD lane count, 1 for the tree-walker.
    pub fn lanes(self) -> u8 {
        match self {
            ExecMode::Spmd { lanes } => lanes.clamp(1, MAX_LANES as u8),
            ExecMode::TreeWalker => 1,
        }
    }

    /// Stable compact label (`tree`, `spmdN`) for stats snapshots and
    /// benchmark rows.
    pub fn label(self) -> String {
        match self {
            ExecMode::TreeWalker => "tree".into(),
            ExecMode::Spmd { lanes } => format!("spmd{lanes}"),
        }
    }
}

/// Most varying components a program may interpolate: 8 vec4 rows, the
/// ES 2 minimum the paper's platform guarantees. Fixed-size per-fragment
/// buffers are sized by this, keeping interpolation allocation-free.
pub const MAX_VARYING_COMPONENTS: usize = 32;

/// Primitive topologies accepted by `draw_arrays`.
///
/// ES 2 also rasterises lines; this GPGPU-oriented subset supports the
/// triangle modes (the paper's screen-covering quad, workaround #2) plus
/// `POINTS`, which vertex-stage compute uses to scatter one work item per
/// output pixel (§III-1: kernels "can be implemented in the vertex or the
/// fragment processing stage").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrimitiveMode {
    /// Independent triangles; `count` must be a multiple of 3.
    Triangles,
    /// Strip: vertices (i, i+1, i+2) with alternating winding.
    TriangleStrip,
    /// Fan around vertex 0.
    TriangleFan,
    /// One point per vertex, sized by `gl_PointSize` (default 1);
    /// varyings pass through without interpolation.
    Points,
}

/// Fragment dispatch strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Dispatch {
    /// Single-threaded (deterministic op ordering, easiest to debug).
    Serial,
    /// Fixed number of worker threads.
    Parallel(usize),
    /// One thread per available core (results identical to serial; the
    /// QPU-like data parallelism of fragment shading is order-independent).
    #[default]
    Auto,
}

impl Dispatch {
    /// Reads the `GPES_TEST_DISPATCH` override the CI dispatch matrix
    /// sets: `serial`/`1` forces single-threaded rasterisation, `auto`
    /// forces one thread per core, and a number forces that thread count.
    /// Returns `None` when the variable is unset or unrecognised.
    pub fn from_env() -> Option<Dispatch> {
        match std::env::var("GPES_TEST_DISPATCH").ok()?.as_str() {
            "serial" | "1" => Some(Dispatch::Serial),
            "auto" => Some(Dispatch::Auto),
            n => n.parse::<usize>().ok().map(Dispatch::Parallel),
        }
    }

    fn threads(self) -> usize {
        match self {
            Dispatch::Serial => 1,
            Dispatch::Parallel(n) => n.max(1),
            Dispatch::Auto => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .min(16),
        }
    }
}

/// Per-draw statistics — the observable pipeline trace (experiment F1).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DrawStats {
    /// Vertex shader invocations.
    pub vertices_shaded: u32,
    /// Triangles assembled from the vertex stream.
    pub triangles_in: u32,
    /// Triangles that survived face/degeneracy/w-culling.
    pub triangles_rasterized: u32,
    /// Fragment shader invocations.
    pub fragments_shaded: u64,
    /// Fragments that executed `discard`.
    pub fragments_discarded: u64,
    /// Pixels written to the target after all per-fragment tests.
    pub pixels_written: u64,
    /// SPMD fragment batches dispatched (0 under the tree-walker — the
    /// CI gate asserts it is positive when [`ExecMode::Spmd`] ran).
    pub spmd_batches: u64,
    /// SPMD fragment batches replayed lane-by-lane after a lane trap.
    pub scalar_fallbacks: u64,
    /// Vertex-stage operation profile.
    pub vs_profile: OpProfile,
    /// Fragment-stage operation profile (drives the `gpes-perf` model).
    pub fs_profile: OpProfile,
}

impl DrawStats {
    /// Folds one band's fragment-stage counters in.
    fn add_band(&mut self, band: &BandStats) {
        self.fragments_shaded += band.shaded;
        self.fragments_discarded += band.discarded;
        self.pixels_written += band.written;
        self.spmd_batches += band.spmd_batches;
        self.scalar_fallbacks += band.scalar_fallbacks;
        self.fs_profile.merge(&band.profile);
    }
}

/// A client-side attribute array (`glVertexAttribPointer` analog).
#[derive(Debug, Clone, PartialEq)]
pub struct AttribArray {
    /// Components per vertex (1–4).
    pub size: usize,
    /// Tightly packed floats, `size` per vertex.
    pub data: Vec<f32>,
}

/// Texture-unit bindings snapshot used during one draw call.
pub(crate) struct Bindings<'a> {
    /// Slot per unit; `None` samples as opaque black (incomplete texture).
    pub units: Vec<Option<&'a Texture>>,
}

impl TextureAccess for Bindings<'_> {
    fn sample(&self, unit: u32, coord: [f32; 2]) -> [f32; 4] {
        self.units
            .get(unit as usize)
            .and_then(|t| *t)
            .map(|t| t.sample(coord))
            .unwrap_or([0.0, 0.0, 0.0, 1.0])
    }
}

/// A shader stage instance behind the [`ExecMode`] selection, with one
/// lane-indexed API: stage per-invocation inputs with
/// [`StageExec::set_lane`], dispatch with [`StageExec::run_batch`], then
/// read each lane's outputs. The tree-walker is a one-lane batch; both
/// arms are bit-identical in results and profile counts.
enum StageExec<'a> {
    Spmd(SpmdVm<'a>),
    Tree(Interpreter<'a>),
}

impl<'a> StageExec<'a> {
    /// Instantiates the stage executor for `shader`, lowered to `exe`,
    /// honouring `config.exec_mode`.
    fn new(
        exe: &'a gpes_glsl::Executable,
        shader: &'a gpes_glsl::CompiledShader,
        bindings: &'a Bindings<'a>,
        config: &RasterConfig,
    ) -> Result<StageExec<'a>, GlError> {
        let exec = match config.exec_mode {
            ExecMode::Spmd { lanes } => {
                let mut vm = SpmdVm::with_model(exe, bindings, config.float_model, lanes as usize)?;
                vm.set_limits(config.exec_limits);
                StageExec::Spmd(vm)
            }
            ExecMode::TreeWalker => {
                let mut interp = Interpreter::with_model(shader, bindings, config.float_model)?;
                interp.set_limits(config.exec_limits);
                StageExec::Tree(interp)
            }
        };
        Ok(exec)
    }

    fn is_spmd(&self) -> bool {
        matches!(self, StageExec::Spmd(_))
    }

    /// Invocations per full batch.
    fn lanes(&self) -> usize {
        match self {
            StageExec::Spmd(vm) => vm.lanes(),
            StageExec::Tree(_) => 1,
        }
    }

    /// Resolves a global to its slot (SPMD) or a name marker
    /// (tree-walker). Returns `None` when the stage does not declare the
    /// global.
    fn resolve(&self, name: &str) -> Option<u32> {
        match self {
            StageExec::Spmd(vm) => vm.global_slot(name),
            // The tree-walker addresses globals by name; use a dummy slot
            // value and remember resolvability.
            StageExec::Tree(interp) => interp.global(name).map(|_| u32::MAX),
        }
    }

    /// Sets a global on every lane (uniforms, `gl_FrontFacing`).
    fn set_global(&mut self, name: &str, value: Value) -> Result<(), gpes_glsl::RuntimeError> {
        match self {
            StageExec::Spmd(vm) => vm.set_global(name, value),
            StageExec::Tree(interp) => interp.set_global(name, value),
        }
    }

    /// Stores one lane's input through a global pre-resolved with
    /// [`StageExec::resolve`]; `name` is only consulted by the
    /// tree-walker.
    fn set_lane(&mut self, lane: usize, slot: u32, name: &str, value: Value) {
        match self {
            StageExec::Spmd(vm) => vm.set_lane_slot(lane, slot, value),
            StageExec::Tree(interp) => {
                debug_assert_eq!(lane, 0);
                let _ = interp.set_global(name, value);
            }
        }
    }

    /// Stores one lane's float-based input from its components: straight
    /// into the SPMD slot's lanes, with no [`Value`] built, when it holds
    /// that many float components per lane (a float or vecN); otherwise
    /// through [`StageExec::set_lane`] with the value `ty` rebuilds.
    fn set_lane_floats(&mut self, lane: usize, slot: u32, name: &str, ty: &Type, comps: &[f32]) {
        if let StageExec::Spmd(vm) = self {
            if vm.set_lane_floats(lane, slot, comps) {
                return;
            }
        }
        self.set_lane(lane, slot, name, rebuild_varying(ty, comps));
    }

    /// Runs `main()` on lanes `0..n`. On a trap, every lane below the
    /// reported one completed exactly as a sequential run would have.
    fn run_batch(&mut self, n: usize) -> Result<(), BatchError> {
        match self {
            StageExec::Spmd(vm) => vm.run_batch(n),
            StageExec::Tree(interp) => interp
                .run_main()
                .map_err(|error| BatchError { lane: 0, error }),
        }
    }

    /// Reads one lane's global through a slot pre-resolved with
    /// [`StageExec::resolve`]; `name` is only consulted by the
    /// tree-walker.
    fn global_at(&self, lane: usize, slot: u32, name: &str) -> Option<Value> {
        match self {
            StageExec::Spmd(vm) => Some(vm.global_at(lane, slot)),
            StageExec::Tree(interp) => interp.global(name).cloned(),
        }
    }

    fn discarded(&self, lane: usize) -> bool {
        match self {
            StageExec::Spmd(vm) => vm.discarded(lane),
            StageExec::Tree(interp) => interp.discarded(),
        }
    }

    fn frag_color(&self, lane: usize) -> Option<[f32; 4]> {
        match self {
            StageExec::Spmd(vm) => vm.frag_color(lane),
            StageExec::Tree(interp) => interp.frag_color(),
        }
    }

    fn take_profile(&mut self) -> OpProfile {
        match self {
            StageExec::Spmd(vm) => vm.take_profile(),
            StageExec::Tree(interp) => interp.take_profile(),
        }
    }

    /// Batches replayed lane-by-lane after a trap since the last call.
    fn take_replays(&mut self) -> u64 {
        match self {
            StageExec::Spmd(vm) => vm.take_replays(),
            StageExec::Tree(_) => 0,
        }
    }
}

/// Pixel storage of a render target.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) enum PixelStore {
    /// 4 bytes: eq. (2) clamp + byte conversion (core ES 2).
    #[default]
    Rgba8,
    /// 8 bytes: four binary16 floats, unclamped
    /// (`EXT_color_buffer_half_float`).
    RgbaF16,
}

impl PixelStore {
    pub(crate) fn bytes_per_pixel(self) -> usize {
        match self {
            PixelStore::Rgba8 => 4,
            PixelStore::RgbaF16 => 8,
        }
    }
}

/// Mutable view of the render target for one draw call.
pub(crate) struct TargetImage<'a> {
    pub width: u32,
    pub height: u32,
    /// Pixel bytes, row 0 at the bottom; layout per [`PixelStore`].
    pub color: &'a mut [u8],
    pub depth: Option<&'a mut [f32]>,
    pub pixel: PixelStore,
}

/// Fixed-function state for one draw call.
pub(crate) struct RasterConfig {
    pub viewport: (i32, i32, i32, i32),
    pub scissor: Option<(i32, i32, i32, i32)>,
    pub store_rounding: StoreRounding,
    pub float_model: FloatModel,
    pub dispatch: Dispatch,
    pub depth_test: bool,
    pub exec_limits: ExecLimits,
    pub exec_mode: ExecMode,
}

struct VaryingLayout {
    names: Vec<(String, Type, usize)>, // name, type, component count
    total: usize,
}

struct ShadedVertex {
    clip: [f32; 4],
    varyings: Vec<f32>,
    point_size: f32,
}

/// Executes a complete draw call.
#[allow(clippy::too_many_arguments)] // mirrors the GL draw-call surface
pub(crate) fn draw(
    program: &Program,
    attribs: &HashMap<String, AttribArray>,
    mode: PrimitiveMode,
    first: usize,
    count: usize,
    bindings: &Bindings<'_>,
    target: &mut TargetImage<'_>,
    config: &RasterConfig,
) -> Result<DrawStats, GlError> {
    let mut stats = DrawStats::default();
    if count == 0 {
        return Ok(stats);
    }
    if mode == PrimitiveMode::Triangles && !count.is_multiple_of(3) {
        return Err(GlError::invalid_value(
            "GL_TRIANGLES draw count must be a multiple of 3",
        ));
    }
    if mode != PrimitiveMode::Points && count < 3 {
        return Err(GlError::invalid_value(
            "triangle draws need at least 3 vertices",
        ));
    }

    let layout = varying_layout(program);
    if layout.total > MAX_VARYING_COMPONENTS {
        return Err(GlError::invalid_op(format!(
            "{} varying components exceed the rasteriser's fixed budget of {MAX_VARYING_COMPONENTS}",
            layout.total
        )));
    }

    // ---- vertex stage ----------------------------------------------------
    let mut vs = StageExec::new(
        program.vertex_executable(),
        &program.vertex,
        bindings,
        config,
    )?;
    apply_uniforms(&mut vs, program);
    // Pre-resolve attribute slots and arrays so the per-vertex stores
    // need no name lookups (this is the hot path of §III-1 vertex-stage
    // compute).
    let attrs: Vec<(&str, &Type, u32, &AttribArray)> = program
        .attributes()
        .iter()
        .map(|(name, ty)| {
            let slot = vs.resolve(name).ok_or_else(|| {
                GlError::invalid_op(format!("vertex shader lost attribute `{name}`"))
            })?;
            let arr = attribs.get(name).ok_or_else(|| {
                GlError::invalid_op(format!("no attribute array bound for `{name}`"))
            })?;
            Ok((name.as_str(), ty, slot, arr))
        })
        .collect::<Result<_, GlError>>()?;

    // Vertices shade `lanes()` at a time; primitive assembly reads them
    // back in vertex order.
    let outputs = VertexOutputs::resolve(&vs, &layout);
    let mut shaded: Vec<ShadedVertex> = Vec::with_capacity(count);
    let end = first + count;
    for start in (first..end).step_by(vs.lanes()) {
        let n = vs.lanes().min(end - start);
        for lane in 0..n {
            for &(name, ty, slot, arr) in &attrs {
                vs.set_lane(lane, slot, name, attribute_value(arr, start + lane, ty)?);
            }
        }
        vs.run_batch(n).map_err(|e| GlError::ShaderTrap(e.error))?;
        for lane in 0..n {
            shaded.push(vertex_outputs(&vs, lane, &outputs, &layout)?);
        }
    }
    stats.vertices_shaded = count as u32;
    stats.vs_profile = vs.take_profile();

    if mode == PrimitiveMode::Points {
        raster_points(
            program, &shaded, &layout, bindings, target, config, &mut stats,
        )?;
        return Ok(stats);
    }

    // ---- primitive assembly ----------------------------------------------
    let tris = assemble(mode, count);
    stats.triangles_in = tris.len() as u32;

    // ---- rasterisation + fragment stage -----------------------------------
    // A serial draw builds its fragment stage once, for the first
    // triangle that covers a pixel, and reuses it for the rest.
    let mut serial = None;
    for tri in tris {
        let rasterized = raster_triangle(
            program,
            &shaded,
            tri,
            &layout,
            bindings,
            target,
            config,
            (&mut stats, &mut serial),
        )?;
        if rasterized {
            stats.triangles_rasterized += 1;
        }
    }
    if let Some(batch) = serial {
        stats.add_band(&batch.finish());
    }
    Ok(stats)
}

/// The vertex stage's outputs, resolved to slots once per draw (`None`
/// where the stage does not declare the global).
struct VertexOutputs {
    position: Option<u32>,
    point_size: Option<u32>,
    /// One per entry of [`VaryingLayout::names`].
    varyings: Vec<Option<u32>>,
}

impl VertexOutputs {
    fn resolve(vs: &StageExec<'_>, layout: &VaryingLayout) -> VertexOutputs {
        VertexOutputs {
            position: vs.resolve("gl_Position"),
            point_size: vs.resolve("gl_PointSize"),
            varyings: layout
                .names
                .iter()
                .map(|(name, ..)| vs.resolve(name))
                .collect(),
        }
    }
}

/// Reads one shaded vertex's `gl_Position`, varyings and `gl_PointSize`.
fn vertex_outputs(
    vs: &StageExec<'_>,
    lane: usize,
    outputs: &VertexOutputs,
    layout: &VaryingLayout,
) -> Result<ShadedVertex, GlError> {
    let clip = outputs
        .position
        .and_then(|slot| vs.global_at(lane, slot, "gl_Position"))
        .and_then(|v| v.as_vec4())
        .ok_or_else(|| GlError::invalid_op("vertex shader did not produce gl_Position"))?;
    let mut varyings = Vec::with_capacity(layout.total);
    for ((name, _, len), slot) in layout.names.iter().zip(&outputs.varyings) {
        let v = slot
            .and_then(|slot| vs.global_at(lane, slot, name))
            .ok_or_else(|| GlError::invalid_op(format!("vertex shader lost varying `{name}`")))?;
        let comps = v
            .float_components()
            .ok_or_else(|| GlError::invalid_op(format!("varying `{name}` is not float-based")))?;
        debug_assert_eq!(comps.len(), *len);
        varyings.extend_from_slice(&comps);
    }
    let point_size = match outputs
        .point_size
        .and_then(|slot| vs.global_at(lane, slot, "gl_PointSize"))
    {
        Some(Value::Float(f)) => f,
        _ => 1.0,
    };
    Ok(ShadedVertex {
        clip,
        varyings,
        point_size,
    })
}

fn varying_layout(program: &Program) -> VaryingLayout {
    let mut names = Vec::new();
    let mut total = 0;
    for (name, ty) in program.varyings() {
        let len = ty.component_count().unwrap_or(0);
        total += len;
        names.push((name.clone(), ty.clone(), len));
    }
    VaryingLayout { names, total }
}

fn apply_uniforms(exec: &mut StageExec<'_>, program: &Program) {
    for (name, value) in program.uniform_values() {
        // A uniform may be declared in only one of the two stages; ignore
        // the stage that does not know the name.
        let _ = exec.set_global(name, value.clone());
    }
}

/// Builds the attribute value for vertex `vi`, padding missing components
/// with (0, 0, 0, 1) as GL does.
fn attribute_value(arr: &AttribArray, vi: usize, ty: &Type) -> Result<Value, GlError> {
    if !(1..=4).contains(&arr.size) {
        return Err(GlError::invalid_value("attribute size must be 1..=4"));
    }
    let start = vi * arr.size;
    if start + arr.size > arr.data.len() {
        return Err(GlError::invalid_value(format!(
            "attribute array too short for vertex {vi}"
        )));
    }
    let supplied = &arr.data[start..start + arr.size];
    let mut full = [0.0f32, 0.0, 0.0, 1.0];
    full[..supplied.len()].copy_from_slice(supplied);
    match ty {
        Type::Float => Ok(Value::Float(full[0])),
        Type::Vec2 => Ok(Value::Vec2([full[0], full[1]])),
        Type::Vec3 => Ok(Value::Vec3([full[0], full[1], full[2]])),
        Type::Vec4 => Ok(Value::Vec4(full)),
        other => Err(GlError::invalid_op(format!(
            "attribute type {other} is not supported by this subset"
        ))),
    }
}

fn assemble(mode: PrimitiveMode, count: usize) -> Vec<[usize; 3]> {
    match mode {
        // Points never reach assembly (dedicated raster path).
        PrimitiveMode::Points => Vec::new(),
        PrimitiveMode::Triangles => (0..count / 3)
            .map(|t| [3 * t, 3 * t + 1, 3 * t + 2])
            .collect(),
        PrimitiveMode::TriangleStrip => (0..count.saturating_sub(2))
            .map(|i| {
                if i % 2 == 0 {
                    [i, i + 1, i + 2]
                } else {
                    [i + 1, i, i + 2]
                }
            })
            .collect(),
        PrimitiveMode::TriangleFan => (0..count.saturating_sub(2))
            .map(|i| [0, i + 1, i + 2])
            .collect(),
    }
}

fn edge(ax: f64, ay: f64, bx: f64, by: f64, px: f64, py: f64) -> f64 {
    (bx - ax) * (py - ay) - (by - ay) * (px - ax)
}

/// Top-left fill rule: a pixel centre exactly on an edge belongs to the
/// triangle iff the (CCW-directed) edge points "up", or is horizontal and
/// points "left". Opposite-direction shared edges therefore claim each
/// boundary pixel exactly once.
fn accepts_zero_edge(ax: f64, ay: f64, bx: f64, by: f64) -> bool {
    let dy = by - ay;
    let dx = bx - ax;
    dy > 0.0 || (dy == 0.0 && dx < 0.0)
}

struct TriangleSetup {
    sx: [f64; 3],
    sy: [f64; 3],
    inv_w: [f32; 3],
    z_ndc: [f32; 3],
    /// Varying components pre-divided by clip w (for perspective-correct
    /// interpolation). Fixed-size: no allocation per triangle.
    var_over_w: [[f32; MAX_VARYING_COMPONENTS]; 3],
    front_facing: bool,
}

#[derive(Default, Clone, Copy)]
struct BandStats {
    shaded: u64,
    discarded: u64,
    written: u64,
    spmd_batches: u64,
    scalar_fallbacks: u64,
    profile: OpProfile,
}

/// Rasterises one triangle: in one band on the draw's `serial` fragment
/// stage (built on first use), or in bands on threads of their own, whose
/// stats go to `stats`.
#[allow(clippy::too_many_arguments)]
fn raster_triangle<'a>(
    program: &'a Program,
    shaded: &[ShadedVertex],
    tri: [usize; 3],
    layout: &VaryingLayout,
    bindings: &'a Bindings<'a>,
    target: &mut TargetImage<'_>,
    config: &RasterConfig,
    (stats, serial): (&mut DrawStats, &mut Option<FragmentBatch<'a>>),
) -> Result<bool, GlError> {
    let verts = [&shaded[tri[0]], &shaded[tri[1]], &shaded[tri[2]]];
    // No clipping in this subset: drop triangles behind the eye.
    if verts.iter().any(|v| v.clip[3] <= 0.0) {
        return Ok(false);
    }
    let (vx, vy, vw, vh) = config.viewport;
    let mut sx = [0.0f64; 3];
    let mut sy = [0.0f64; 3];
    let mut inv_w = [0.0f32; 3];
    let mut z_ndc = [0.0f32; 3];
    for k in 0..3 {
        let w = verts[k].clip[3];
        let ndc_x = verts[k].clip[0] / w;
        let ndc_y = verts[k].clip[1] / w;
        z_ndc[k] = verts[k].clip[2] / w;
        sx[k] = vx as f64 + (ndc_x as f64 + 1.0) * 0.5 * vw as f64;
        sy[k] = vy as f64 + (ndc_y as f64 + 1.0) * 0.5 * vh as f64;
        inv_w[k] = 1.0 / w;
    }
    let mut order = [0usize, 1, 2];
    let area = edge(sx[0], sy[0], sx[1], sy[1], sx[2], sy[2]);
    if area == 0.0 {
        return Ok(false);
    }
    let front_facing = area > 0.0;
    if area < 0.0 {
        // Reorder to counter-clockwise so all edge functions are positive
        // inside; remember original facing for gl_FrontFacing.
        order = [0, 2, 1];
    }
    let o = order;
    let setup = TriangleSetup {
        sx: [sx[o[0]], sx[o[1]], sx[o[2]]],
        sy: [sy[o[0]], sy[o[1]], sy[o[2]]],
        inv_w: [inv_w[o[0]], inv_w[o[1]], inv_w[o[2]]],
        z_ndc: [z_ndc[o[0]], z_ndc[o[1]], z_ndc[o[2]]],
        var_over_w: [
            premultiply(&verts[o[0]].varyings, inv_w[o[0]]),
            premultiply(&verts[o[1]].varyings, inv_w[o[1]]),
            premultiply(&verts[o[2]].varyings, inv_w[o[2]]),
        ],
        front_facing,
    };

    // Bounding box clipped to viewport, target and scissor.
    let min_x = setup.sx.iter().cloned().fold(f64::INFINITY, f64::min);
    let max_x = setup.sx.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let min_y = setup.sy.iter().cloned().fold(f64::INFINITY, f64::min);
    let max_y = setup.sy.iter().cloned().fold(f64::NEG_INFINITY, f64::max);

    let clip_lo_x = vx.max(0);
    let clip_lo_y = vy.max(0);
    let clip_hi_x = (vx + vw).min(target.width as i32);
    let clip_hi_y = (vy + vh).min(target.height as i32);
    let (clip_lo_x, clip_lo_y, clip_hi_x, clip_hi_y) = match config.scissor {
        Some((sx0, sy0, sw, sh)) => (
            clip_lo_x.max(sx0),
            clip_lo_y.max(sy0),
            clip_hi_x.min(sx0 + sw),
            clip_hi_y.min(sy0 + sh),
        ),
        None => (clip_lo_x, clip_lo_y, clip_hi_x, clip_hi_y),
    };

    let x0 = (min_x.floor() as i32).max(clip_lo_x);
    let x1 = (max_x.ceil() as i32).min(clip_hi_x);
    let y0 = (min_y.floor() as i32).max(clip_lo_y);
    let y1 = (max_y.ceil() as i32).min(clip_hi_y);
    if x0 >= x1 || y0 >= y1 {
        return Ok(false);
    }

    let rows = (y1 - y0) as usize;
    let threads = config.dispatch.threads().min(rows).max(1);
    let width = target.width as usize;
    let bpp = target.pixel.bytes_per_pixel();
    let pixel = target.pixel;

    let band_results: Vec<Result<BandStats, GlError>> = if threads == 1 {
        let batch = match serial {
            Some(batch) => batch,
            None => serial.insert(FragmentBatch::new(program, layout, bindings, config)?),
        };
        let color = &mut *target.color;
        let depth = target.depth.as_deref_mut();
        raster_band(
            batch, layout, &setup, config, width, x0, x1, y0, y1, color, 0, depth, pixel,
        )?;
        return Ok(true);
    } else {
        // Split the target rows y0..y1 into contiguous bands.
        let rows_per_band = rows.div_ceil(threads);
        let mut bands: Vec<(i32, i32)> = Vec::new();
        let mut y = y0;
        while y < y1 {
            let end = (y + rows_per_band as i32).min(y1);
            bands.push((y, end));
            y = end;
        }
        // Carve the color (and depth) buffers into per-band mutable slices.
        let mut color_slices: Vec<&mut [u8]> = Vec::with_capacity(bands.len());
        let mut depth_slices: Vec<Option<&mut [f32]>> = Vec::with_capacity(bands.len());
        {
            let mut color_rest: &mut [u8] = target.color;
            let mut consumed_rows = 0usize;
            let mut depth_rest: Option<&mut [f32]> = target.depth.as_deref_mut();
            for &(by0, by1) in &bands {
                let skip_rows = by0 as usize - consumed_rows;
                let take_rows = (by1 - by0) as usize;
                let (_, after_skip) = color_rest.split_at_mut(skip_rows * width * bpp);
                let (band, rest) = after_skip.split_at_mut(take_rows * width * bpp);
                color_slices.push(band);
                color_rest = rest;
                depth_rest = match depth_rest {
                    Some(d) => {
                        let (_, after_skip) = d.split_at_mut(skip_rows * width);
                        let (band, rest) = after_skip.split_at_mut(take_rows * width);
                        depth_slices.push(Some(band));
                        Some(rest)
                    }
                    None => {
                        depth_slices.push(None);
                        None
                    }
                };
                consumed_rows = by1 as usize;
            }
        }
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(bands.len());
            for ((&(by0, by1), color_band), depth_band) in
                bands.iter().zip(color_slices).zip(depth_slices)
            {
                let setup = &setup;
                // The stage cannot cross threads (its texture access is
                // not `Sync`): each band builds its own.
                handles.push(scope.spawn(move || {
                    let mut batch = FragmentBatch::new(program, layout, bindings, config)?;
                    raster_band(
                        &mut batch, layout, setup, config, width, x0, x1, by0, by1, color_band,
                        by0, depth_band, pixel,
                    )?;
                    Ok(batch.finish())
                }));
            }
            handles
                .into_iter()
                .map(|h| h.join().expect("raster worker panicked"))
                .collect()
        })
    };

    for result in band_results {
        stats.add_band(&result?);
    }
    Ok(true)
}

/// Pre-divides varying components by clip `w` into a fixed-size buffer
/// (was a fresh `Vec<f32>` per vertex per triangle).
fn premultiply(comps: &[f32], inv_w: f32) -> [f32; MAX_VARYING_COMPONENTS] {
    let mut out = [0.0f32; MAX_VARYING_COMPONENTS];
    for (slot, &c) in out.iter_mut().zip(comps) {
        *slot = c * inv_w;
    }
    out
}

/// Writes one fragment colour into the target according to its pixel
/// store (eq. (2) byte conversion, or raw halves for float targets).
fn store_pixel(
    color: &mut [u8],
    pixel_index: usize,
    pixel: PixelStore,
    rgba: [f32; 4],
    rounding: StoreRounding,
) {
    match pixel {
        PixelStore::Rgba8 => {
            let byte_off = pixel_index * 4;
            for (i, &c) in rgba.iter().enumerate() {
                color[byte_off + i] = float_to_texel(c, rounding);
            }
        }
        PixelStore::RgbaF16 => {
            let byte_off = pixel_index * 8;
            for (i, &c) in rgba.iter().enumerate() {
                let bits = crate::half::f32_to_f16_bits(c).to_le_bytes();
                color[byte_off + 2 * i] = bits[0];
                color[byte_off + 2 * i + 1] = bits[1];
            }
        }
    }
}

/// The fragment stage of one band (of every triangle of a serial draw, or
/// of one points draw). Accepted fragments become the lanes of the next
/// batch; their depth and colour writes are deferred until the batch
/// flushes. Batched pixels are unique — a band never revisits a pixel
/// and flushes at each triangle's end, and points flush per point
/// whenever depth is observable — so retiring at flush time is
/// indistinguishable from writing each fragment as it is shaded.
struct FragmentBatch<'a> {
    fs: StageExec<'a>,
    varying_slots: Vec<u32>,
    fragcoord_slot: u32,
    n: usize,
    pixel_index: [usize; MAX_LANES],
    frag_z: [f32; MAX_LANES],
    stats: BandStats,
}

impl<'a> FragmentBatch<'a> {
    fn new(
        program: &'a Program,
        layout: &VaryingLayout,
        bindings: &'a Bindings<'a>,
        config: &RasterConfig,
    ) -> Result<Self, GlError> {
        let mut fs = StageExec::new(
            program.fragment_executable(),
            &program.fragment,
            bindings,
            config,
        )?;
        apply_uniforms(&mut fs, program);
        // Pre-resolve per-fragment stores once: inside the raster loops
        // the SPMD path is a plain indexed slot write, no string
        // comparisons.
        let varying_slots: Vec<u32> = layout
            .names
            .iter()
            .map(|(name, _, _)| {
                fs.resolve(name).ok_or_else(|| {
                    GlError::invalid_op(format!("fragment shader lost varying `{name}`"))
                })
            })
            .collect::<Result<_, _>>()?;
        let fragcoord_slot = fs
            .resolve("gl_FragCoord")
            .ok_or_else(|| GlError::invalid_op("fragment shader lost gl_FragCoord"))?;
        Ok(FragmentBatch {
            fs,
            varying_slots,
            fragcoord_slot,
            n: 0,
            pixel_index: [0; MAX_LANES],
            frag_z: [0.0; MAX_LANES],
            stats: BandStats::default(),
        })
    }

    /// Starts a primitive: sets `gl_FrontFacing`.
    fn begin(&mut self, front_facing: bool) {
        let _ = self
            .fs
            .set_global("gl_FrontFacing", Value::Bool(front_facing));
    }

    /// Stages one accepted fragment as the next lane: its varying
    /// components (in `layout` order), `gl_FragCoord` and deferred
    /// destination. Returns whether the batch is now full.
    fn push(
        &mut self,
        layout: &VaryingLayout,
        comps: &[f32],
        frag_coord: [f32; 4],
        pixel_index: usize,
        frag_z: f32,
    ) -> bool {
        let lane = self.n;
        let mut offset = 0usize;
        for ((name, ty, len), slot) in layout.names.iter().zip(&self.varying_slots) {
            let comps = &comps[offset..offset + len];
            offset += len;
            self.fs.set_lane_floats(lane, *slot, name, ty, comps);
        }
        self.fs.set_lane_floats(
            lane,
            self.fragcoord_slot,
            "gl_FragCoord",
            &Type::Vec4,
            &frag_coord,
        );
        self.pixel_index[lane] = pixel_index;
        self.frag_z[lane] = frag_z;
        self.n += 1;
        self.n == self.fs.lanes()
    }

    /// Dispatches the staged lanes and retires them in lane order:
    /// depth writes, colour stores and stat counting happen here. On a
    /// lane trap the lanes below the erroring lane (which completed
    /// exactly) still retire before the error propagates — exactly the
    /// pixels a sequential walk would have written before trapping.
    fn flush(
        &mut self,
        config: &RasterConfig,
        color: &mut [u8],
        mut depth: Option<&mut [f32]>,
        pixel: PixelStore,
    ) -> Result<(), GlError> {
        let n = std::mem::take(&mut self.n);
        if n == 0 {
            return Ok(());
        }
        let result = self.fs.run_batch(n);
        if self.fs.is_spmd() {
            self.stats.spmd_batches += 1;
        }
        self.stats.scalar_fallbacks += self.fs.take_replays();
        let retired = match &result {
            Ok(()) => n,
            Err(e) => e.lane,
        };
        for lane in 0..retired {
            self.stats.shaded += 1;
            if self.fs.discarded(lane) {
                self.stats.discarded += 1;
                continue;
            }
            let rgba = self.fs.frag_color(lane).ok_or(GlError::ShaderTrap(
                gpes_glsl::RuntimeError::MissingOutput {
                    name: "gl_FragColor",
                },
            ))?;
            let pixel_index = self.pixel_index[lane];
            if config.depth_test {
                if let Some(depth_buf) = depth.as_deref_mut() {
                    depth_buf[pixel_index] = self.frag_z[lane];
                }
            }
            store_pixel(color, pixel_index, pixel, rgba, config.store_rounding);
            self.stats.written += 1;
        }
        result.map_err(|e| GlError::ShaderTrap(e.error))
    }

    /// The band's counters, with the stage's accumulated profile.
    fn finish(mut self) -> BandStats {
        self.stats.profile = self.fs.take_profile();
        self.stats
    }
}

/// Rasterises every shaded vertex as a point sprite (serial dispatch —
/// point counts in GPGPU scatter passes equal the output size, and each
/// point touches few pixels). Varyings pass through uninterpolated, per
/// the GL point rasterisation rules.
fn raster_points(
    program: &Program,
    shaded: &[ShadedVertex],
    layout: &VaryingLayout,
    bindings: &Bindings<'_>,
    target: &mut TargetImage<'_>,
    config: &RasterConfig,
    stats: &mut DrawStats,
) -> Result<(), GlError> {
    let mut batch = FragmentBatch::new(program, layout, bindings, config)?;
    batch.begin(true);
    // A batch may only span points when no depth buffer is observable:
    // two points can cover the same pixel, and the second must see the
    // first's depth write. Pixels within one point are unique.
    let flush_per_point = config.depth_test && target.depth.is_some();

    let (vx, vy, vw, vh) = config.viewport;
    let clip_lo_x = vx.max(0);
    let clip_lo_y = vy.max(0);
    let clip_hi_x = (vx + vw).min(target.width as i32);
    let clip_hi_y = (vy + vh).min(target.height as i32);
    let (clip_lo_x, clip_lo_y, clip_hi_x, clip_hi_y) = match config.scissor {
        Some((sx0, sy0, sw, sh)) => (
            clip_lo_x.max(sx0),
            clip_lo_y.max(sy0),
            clip_hi_x.min(sx0 + sw),
            clip_hi_y.min(sy0 + sh),
        ),
        None => (clip_lo_x, clip_lo_y, clip_hi_x, clip_hi_y),
    };
    let width = target.width as usize;

    for v in shaded {
        let w = v.clip[3];
        if w <= 0.0 {
            continue;
        }
        let sx = vx as f64 + (v.clip[0] as f64 / w as f64 + 1.0) * 0.5 * vw as f64;
        let sy = vy as f64 + (v.clip[1] as f64 / w as f64 + 1.0) * 0.5 * vh as f64;
        let z_ndc = v.clip[2] / w;
        let frag_z = (z_ndc * 0.5 + 0.5).clamp(0.0, 1.0);
        let half = (v.point_size.max(1.0) as f64) / 2.0;

        // Covered pixels: centres inside the point square.
        let x0 = ((sx - half - 0.5).ceil() as i32).max(clip_lo_x);
        let x1 = ((sx + half - 0.5).floor() as i32 + 1).min(clip_hi_x);
        let y0 = ((sy - half - 0.5).ceil() as i32).max(clip_lo_y);
        let y1 = ((sy + half - 0.5).floor() as i32 + 1).min(clip_hi_y);

        for py in y0..y1 {
            for px in x0..x1 {
                let pixel_index = py as usize * width + px as usize;
                if config.depth_test {
                    if let Some(depth_buf) = target.depth.as_deref() {
                        if frag_z >= depth_buf[pixel_index] {
                            continue;
                        }
                    }
                }
                let frag_coord = [px as f32 + 0.5, py as f32 + 0.5, frag_z, 1.0 / w];
                if batch.push(layout, &v.varyings, frag_coord, pixel_index, frag_z) {
                    batch.flush(
                        config,
                        target.color,
                        target.depth.as_deref_mut(),
                        target.pixel,
                    )?;
                }
            }
        }

        // With a depth buffer active a later point may cover one of this
        // point's pixels, so its writes must land before the next point.
        if flush_per_point {
            batch.flush(
                config,
                target.color,
                target.depth.as_deref_mut(),
                target.pixel,
            )?;
        }
    }
    batch.flush(
        config,
        target.color,
        target.depth.as_deref_mut(),
        target.pixel,
    )?;
    stats.add_band(&batch.finish());
    Ok(())
}

/// Rasterises rows `y0..y1` of one triangle on `batch` into a band buffer
/// whose first row corresponds to target row `band_base`.
#[allow(clippy::too_many_arguments)]
fn raster_band(
    batch: &mut FragmentBatch<'_>,
    layout: &VaryingLayout,
    setup: &TriangleSetup,
    config: &RasterConfig,
    width: usize,
    x0: i32,
    x1: i32,
    y0: i32,
    y1: i32,
    color: &mut [u8],
    band_base: i32,
    mut depth: Option<&mut [f32]>,
    pixel: PixelStore,
) -> Result<(), GlError> {
    batch.begin(setup.front_facing);

    let [ax, bx, cx] = setup.sx;
    let [ay, by, cy] = setup.sy;
    let area = edge(ax, ay, bx, by, cx, cy);
    debug_assert!(area > 0.0);

    let top_left_ab = accepts_zero_edge(ax, ay, bx, by);
    let top_left_bc = accepts_zero_edge(bx, by, cx, cy);
    let top_left_ca = accepts_zero_edge(cx, cy, ax, ay);

    let mut comps = [0.0f32; MAX_VARYING_COMPONENTS];
    for py in y0..y1 {
        let pyc = py as f64 + 0.5;
        for px in x0..x1 {
            let pxc = px as f64 + 0.5;
            let w_ab = edge(ax, ay, bx, by, pxc, pyc); // weight for vertex C
            let w_bc = edge(bx, by, cx, cy, pxc, pyc); // weight for vertex A
            let w_ca = edge(cx, cy, ax, ay, pxc, pyc); // weight for vertex B
            let inside = (w_ab > 0.0 || (w_ab == 0.0 && top_left_ab))
                && (w_bc > 0.0 || (w_bc == 0.0 && top_left_bc))
                && (w_ca > 0.0 || (w_ca == 0.0 && top_left_ca));
            if !inside {
                continue;
            }
            let la = (w_bc / area) as f32;
            let lb = (w_ca / area) as f32;
            let lc = (w_ab / area) as f32;

            // Perspective-correct interpolation.
            let denom = la * setup.inv_w[0] + lb * setup.inv_w[1] + lc * setup.inv_w[2];
            let z = la * setup.z_ndc[0] + lb * setup.z_ndc[1] + lc * setup.z_ndc[2];
            let frag_z = (z * 0.5 + 0.5).clamp(0.0, 1.0);

            let pixel_index = (py - band_base) as usize * width + px as usize;
            if config.depth_test {
                if let Some(depth_buf) = depth.as_deref() {
                    if frag_z >= depth_buf[pixel_index] {
                        continue;
                    }
                }
            }

            // Interpolate varyings into the fixed buffer; the batch
            // rebuilds each value into its pre-resolved slot.
            for (idx, slot) in comps[..layout.total].iter_mut().enumerate() {
                let num = la * setup.var_over_w[0][idx]
                    + lb * setup.var_over_w[1][idx]
                    + lc * setup.var_over_w[2][idx];
                *slot = num / denom;
            }
            let frag_coord = [pxc as f32, pyc as f32, frag_z, denom];
            if batch.push(layout, &comps, frag_coord, pixel_index, frag_z) {
                batch.flush(config, color, depth.as_deref_mut(), pixel)?;
            }
        }
    }
    // Partial-band tail: fragments left over when the band ends before
    // filling a full batch. Batches never span triangles or bands.
    batch.flush(config, color, depth, pixel)
}

fn rebuild_varying(ty: &Type, comps: &[f32]) -> Value {
    match ty {
        Type::Float => Value::Float(comps[0]),
        Type::Vec2 => Value::Vec2([comps[0], comps[1]]),
        Type::Vec3 => Value::Vec3([comps[0], comps[1], comps[2]]),
        Type::Vec4 => Value::Vec4([comps[0], comps[1], comps[2], comps[3]]),
        Type::Mat2 => Value::Mat2([[comps[0], comps[1]], [comps[2], comps[3]]]),
        Type::Mat3 => Value::Mat3([
            [comps[0], comps[1], comps[2]],
            [comps[3], comps[4], comps[5]],
            [comps[6], comps[7], comps[8]],
        ]),
        Type::Mat4 => Value::Mat4([
            [comps[0], comps[1], comps[2], comps[3]],
            [comps[4], comps[5], comps[6], comps[7]],
            [comps[8], comps[9], comps[10], comps[11]],
            [comps[12], comps[13], comps[14], comps[15]],
        ]),
        other => unreachable!("varying of type {other} should have been rejected"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assemble_triangles() {
        assert_eq!(
            assemble(PrimitiveMode::Triangles, 6),
            vec![[0, 1, 2], [3, 4, 5]]
        );
    }

    #[test]
    fn assemble_strip_alternates_winding() {
        assert_eq!(
            assemble(PrimitiveMode::TriangleStrip, 5),
            vec![[0, 1, 2], [2, 1, 3], [2, 3, 4]]
        );
    }

    #[test]
    fn assemble_fan_pivots_on_zero() {
        assert_eq!(
            assemble(PrimitiveMode::TriangleFan, 5),
            vec![[0, 1, 2], [0, 2, 3], [0, 3, 4]]
        );
    }

    #[test]
    fn edge_function_sign() {
        // CCW triangle, point inside → positive.
        assert!(edge(0.0, 0.0, 4.0, 0.0, 1.0, 1.0) > 0.0);
        assert!(edge(0.0, 0.0, 4.0, 0.0, 1.0, -1.0) < 0.0);
        assert_eq!(edge(0.0, 0.0, 4.0, 0.0, 2.0, 0.0), 0.0);
    }

    #[test]
    fn top_left_rule_claims_shared_edges_once() {
        // Any edge and its reverse: exactly one accepts zero.
        let cases = [
            (0.0, 0.0, 4.0, 0.0),
            (0.0, 0.0, 0.0, 4.0),
            (0.0, 0.0, 4.0, 4.0),
            (4.0, 1.0, 0.0, 3.0),
        ];
        for (ax, ay, bx, by) in cases {
            let forward = accepts_zero_edge(ax, ay, bx, by);
            let backward = accepts_zero_edge(bx, by, ax, ay);
            assert_ne!(forward, backward, "edge ({ax},{ay})→({bx},{by})");
        }
    }

    #[test]
    fn exec_mode_parse_accepts_tree_and_spmd_widths() {
        for tree in ["tree", "treewalker", "interp"] {
            assert_eq!(ExecMode::parse(tree), Some(ExecMode::TreeWalker));
        }
        assert_eq!(ExecMode::parse("spmd"), Some(ExecMode::Spmd { lanes: 8 }));
        assert_eq!(ExecMode::parse("spmd1"), Some(ExecMode::Spmd { lanes: 1 }));
        assert_eq!(ExecMode::parse("spmd4"), Some(ExecMode::Spmd { lanes: 4 }));
        // Out-of-range widths clamp to 1..=MAX_LANES.
        assert_eq!(ExecMode::parse("spmd0"), Some(ExecMode::Spmd { lanes: 1 }));
        assert_eq!(ExecMode::parse("spmd64"), Some(ExecMode::Spmd { lanes: 8 }));
        for retired in ["scalar", "vm", "bytecode", "spmdx", ""] {
            assert_eq!(ExecMode::parse(retired), None, "{retired:?}");
        }
        assert_eq!(
            ExecMode::parse("spmd4").map(ExecMode::label),
            Some("spmd4".into())
        );
    }

    #[test]
    fn dispatch_thread_counts() {
        assert_eq!(Dispatch::Serial.threads(), 1);
        assert_eq!(Dispatch::Parallel(4).threads(), 4);
        assert_eq!(Dispatch::Parallel(0).threads(), 1);
        assert!(Dispatch::Auto.threads() >= 1);
    }

    #[test]
    fn attribute_padding_follows_gl() {
        let arr = AttribArray {
            size: 2,
            data: vec![1.0, 2.0, 3.0, 4.0],
        };
        let v = attribute_value(&arr, 1, &Type::Vec4).expect("value");
        assert_eq!(v, Value::Vec4([3.0, 4.0, 0.0, 1.0]));
        let v = attribute_value(&arr, 0, &Type::Float).expect("value");
        assert_eq!(v, Value::Float(1.0));
    }

    #[test]
    fn attribute_bounds_checked() {
        let arr = AttribArray {
            size: 3,
            data: vec![0.0; 6],
        };
        assert!(attribute_value(&arr, 2, &Type::Vec3).is_err());
    }
}
