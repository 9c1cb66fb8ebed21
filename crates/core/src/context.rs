//! The compute context: uploads, kernel dispatch and readback over the
//! simulated GLES2 driver.

use crate::addressing::ArrayLayout;
use crate::bind::Bindings;
use crate::buffer::{AnyGpuArray, GpuArray, GpuMatrix, GpuScalar, GpuTexels, TensorData};
use crate::cache::{FifoCache, SharedProgramCache};
use crate::codec::{FloatSpecials, PackBias, ScalarType};
use crate::error::ComputeError;
use crate::geometry::{self, FULLSCREEN_QUAD, FULLSCREEN_QUAD_VERTICES, POSITION_ATTRIBUTE};
use crate::kernel::{check_uniform, unbound_input, Kernel, OutputKind};
use crate::pipeline::{PassRecord, Readback};
use gpes_gles2::{
    Context, Dispatch, DrawStats, ExecMode, Filter, FramebufferId, PrimitiveMode, ProgramId,
    TexFormat, TextureId, Wrap,
};
use gpes_glsl::exec::FloatModel;
use gpes_glsl::{CheckedPrelude, Value};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};

/// Host-side object-churn counters for a [`ComputeContext`].
///
/// Steady-state iteration over the compile/bind split should create
/// **zero** new GL objects: every program comes out of the program cache
/// and every render target out of the recycling pool. Snapshot these
/// counters before and after an iteration loop to assert that.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ContextStats {
    /// Programs actually compiled and linked (cache misses).
    pub programs_linked: u64,
    /// Programs installed from a process-wide [`SharedProgramCache`]
    /// without linking anything in this context (a GL object was still
    /// created to hold the adopted program).
    pub programs_adopted: u64,
    /// Kernel builds served by the program cache without a link.
    pub program_cache_hits: u64,
    /// Programs deleted from GL after leaving the program cache (evicted
    /// or cleared) once no kernel referred to them any more. Live
    /// programs are `programs_linked + programs_adopted -
    /// programs_deleted`.
    pub programs_deleted: u64,
    /// Textures freshly allocated (pool misses), render targets and
    /// uploads alike.
    pub textures_created: u64,
    /// Textures served from the recycling pool (as render targets or
    /// upload storage).
    pub texture_pool_hits: u64,
    /// Textures returned to the pool via the `recycle_*` family.
    pub textures_recycled: u64,
    /// SPMD fragment batches dispatched across all draws. Zero under the
    /// tree-walker; the CI gate asserts it is positive whenever
    /// [`ExecMode::Spmd`] is selected, proving the lane path really ran.
    pub spmd_batches: u64,
    /// SPMD fragment batches replayed lane-by-lane after a lane trap.
    pub scalar_fallbacks: u64,
    /// Typed `f32` tensors that crossed the host↔GPU boundary (uploads
    /// and readbacks alike). A fully quantized serving path performs
    /// **zero** of these after warmup — the a16 CI gate asserts exactly
    /// that.
    pub f32_host_transfers: u64,
    /// Non-f32 (u8/i16/… §IV codec) tensors that crossed the host↔GPU
    /// boundary. The quantized twin of `f32_host_transfers`: a u8 CNN
    /// request moves its image up and its scores back as themselves, so
    /// this counter moves while the f32 one stands still.
    pub quantized_host_transfers: u64,
}

impl ContextStats {
    /// GL objects allocated so far (programs + textures): the number that
    /// must stop growing once an iteration loop reaches steady state.
    pub fn gl_objects_created(&self) -> u64 {
        self.programs_linked + self.programs_adopted + self.textures_created
    }

    /// Field-wise sum of two snapshots — used to accumulate counters
    /// across a context's lifetimes (e.g. an engine worker that replaced
    /// its context after a panicking job must not report zeroed stats).
    pub fn merged(&self, other: &ContextStats) -> ContextStats {
        ContextStats {
            programs_linked: self.programs_linked + other.programs_linked,
            programs_adopted: self.programs_adopted + other.programs_adopted,
            program_cache_hits: self.program_cache_hits + other.program_cache_hits,
            programs_deleted: self.programs_deleted + other.programs_deleted,
            textures_created: self.textures_created + other.textures_created,
            texture_pool_hits: self.texture_pool_hits + other.texture_pool_hits,
            textures_recycled: self.textures_recycled + other.textures_recycled,
            spmd_batches: self.spmd_batches + other.spmd_batches,
            scalar_fallbacks: self.scalar_fallbacks + other.scalar_fallbacks,
            f32_host_transfers: self.f32_host_transfers + other.f32_host_transfers,
            quantized_host_transfers: self.quantized_host_transfers
                + other.quantized_host_transfers,
        }
    }
}

/// A context's handle on one of its GL programs. The program cache holds
/// one clone and every [`Kernel`] or vertex kernel built on the program
/// another, so a program that leaves the cache is deleted only once the
/// last kernel using it is dropped.
pub(crate) type ProgramRef = Arc<ProgramId>;

/// Textures whose [`OwnedTexture`] dropped, waiting for the issuing
/// context's pool. Shared with the guards, so a context must stay `Send`.
type Returns = Arc<Mutex<Vec<TextureId>>>;

/// Core's hold on one texture its context issued: an upload, a draw
/// target, a pipeline buffer or a worker's upload. Dropping the guard
/// gives the texture back to that context's pool (through its return
/// list, drained before the next acquire), so an error path needs no
/// cleanup of its own; [`OwnedTexture::into_id`] hands it out instead.
#[derive(Debug)]
pub(crate) struct OwnedTexture {
    id: TextureId,
    /// `None` once handed out.
    returns: Option<Returns>,
}

impl OwnedTexture {
    pub(crate) fn id(&self) -> TextureId {
        self.id
    }

    /// Hands the texture out of the guard: dropping it returns nothing.
    pub(crate) fn into_id(mut self) -> TextureId {
        self.returns = None;
        self.id
    }
}

impl Drop for OwnedTexture {
    fn drop(&mut self) {
        if let Some(returns) = &self.returns {
            let mut returns = returns.lock().unwrap_or_else(PoisonError::into_inner);
            returns.push(self.id);
        }
    }
}

/// A kernel's bindings after validation against its signature and merging
/// with the build-time defaults: what one dispatch actually uses.
pub(crate) struct ResolvedDispatch {
    pub(crate) layout: ArrayLayout,
    /// Parallel to the kernel's input list (texture-unit order).
    pub(crate) inputs: Vec<(TextureId, ArrayLayout)>,
}

/// A GPGPU compute context over OpenGL ES 2 (the paper's framework).
///
/// Owns a GL context whose default framebuffer acts as the "screen"; all
/// final readbacks go through it or through FBO-attached textures, exactly
/// as the API allows on real hardware.
///
/// The context also owns two caches that keep iteration loops free of GL
/// object churn (the TFLite-delegate / CNNdroid pattern):
///
/// * a **program cache** keyed by generated fragment source — building an
///   identical kernel twice links one program. It holds at most
///   [`PROGRAM_CACHE_CAP`] programs; an evicted program is deleted once
///   no kernel refers to it any more;
/// * a **texture pool** — textures released with the `recycle_*`
///   methods, or by a dropped core texture guard, are reused by later
///   uploads and render-to-texture dispatches of the same format and
///   dimensions.
pub struct ComputeContext {
    gl: Context,
    pack_bias: PackBias,
    specials: FloatSpecials,
    scratch_fbo: FramebufferId,
    copy_program: Option<ProgramId>,
    pass_log: Vec<PassRecord>,
    /// `vs \0 fs` source → linked program, oldest evicted first.
    program_cache: FifoCache<String, ProgramRef>,
    /// Programs out of the cache that a live kernel still used at the
    /// last sweep; deleted by a later sweep once their last kernel drops.
    parked: Vec<ProgramRef>,
    program_cache_enabled: bool,
    /// Optional process-wide cache consulted on local misses: workers in a
    /// serving pool install shared linked programs instead of relinking.
    shared_cache: Option<Arc<SharedProgramCache>>,
    /// `(width, height)` → recycled RGBA8 render targets.
    target_pool: HashMap<(TexFormat, u32, u32), Vec<TextureId>>,
    /// Textures currently held across all pool buckets.
    pooled_textures: usize,
    returns: Returns,
    stats: ContextStats,
}

/// Per-`(width, height)` cap on pooled textures — a ping-pong dag needs at
/// most a handful of spares per shape; beyond that, recycling deletes.
const POOL_BUCKET_CAP: usize = 8;

/// Total pooled-texture cap across all buckets, so a long-lived context
/// serving many distinct shapes cannot retain memory without bound.
const POOL_TOTAL_CAP: usize = 256;

/// Programs the per-context program cache keeps, so a context building a
/// never-ending stream of distinct kernels (a serving worker under tenant
/// churn) holds a bounded working set. Every bundled pipeline uses far
/// fewer distinct programs, so none of them evicts in steady state.
pub const PROGRAM_CACHE_CAP: usize = 64;

impl ComputeContext {
    /// Creates a context whose default framebuffer ("screen") is
    /// `width × height` — final outputs read through the screen path must
    /// fit inside it.
    ///
    /// # Errors
    ///
    /// Propagates GL context creation failures.
    pub fn new(width: u32, height: u32) -> Result<ComputeContext, ComputeError> {
        ComputeContext::from_gl(Context::new(width, height)?)
    }

    /// Creates a compute context with explicit driver limits — useful to
    /// exercise the chunked-execution paths on a simulated device with a
    /// small `GL_MAX_TEXTURE_SIZE`.
    ///
    /// # Errors
    ///
    /// Propagates GL context creation failures.
    pub fn with_limits(
        width: u32,
        height: u32,
        limits: gpes_gles2::Limits,
    ) -> Result<ComputeContext, ComputeError> {
        ComputeContext::from_gl(Context::new_with_limits(width, height, limits)?)
    }

    fn from_gl(mut gl: Context) -> Result<ComputeContext, ComputeError> {
        let scratch_fbo = gl.create_framebuffer();
        Ok(ComputeContext {
            gl,
            pack_bias: PackBias::default(),
            specials: FloatSpecials::default(),
            scratch_fbo,
            copy_program: None,
            pass_log: Vec::new(),
            program_cache: FifoCache::new(PROGRAM_CACHE_CAP),
            parked: Vec::new(),
            program_cache_enabled: true,
            shared_cache: None,
            target_pool: HashMap::new(),
            pooled_textures: 0,
            returns: Returns::default(),
            stats: ContextStats::default(),
        })
    }

    /// Object-churn counters (program cache / render-target pool).
    pub fn stats(&self) -> ContextStats {
        self.stats
    }

    /// Enables or disables the program cache (on by default; the off
    /// position exists for the `a9` host-cost ablation, which measures
    /// what rebuild-per-pass used to cost).
    pub fn set_program_cache_enabled(&mut self, enabled: bool) {
        self.program_cache_enabled = enabled;
    }

    /// Attaches a process-wide [`SharedProgramCache`]: local cache misses
    /// consult it and *install* the shared linked program instead of
    /// linking here, so N contexts building the same kernel link it once
    /// process-wide. See [`crate::serve::Engine`], which wires one cache
    /// through every worker context.
    pub fn set_shared_program_cache(&mut self, cache: Arc<SharedProgramCache>) {
        self.shared_cache = Some(cache);
    }

    /// The attached process-wide program cache, if any.
    pub fn shared_program_cache(&self) -> Option<&Arc<SharedProgramCache>> {
        self.shared_cache.as_ref()
    }

    /// Empties the program cache. Each cached program is deleted from GL
    /// as soon as no kernel refers to it: at once for programs no live
    /// kernel uses, and at a later kernel build for the rest. Kernels built
    /// earlier keep working; a later build of the same source links (or
    /// adopts) a new program.
    pub fn clear_program_cache(&mut self) {
        let cleared = self.program_cache.drain();
        self.park(cleared.into_iter().map(|(_, program)| program));
    }

    /// Parks programs that just left the cache, then deletes every parked
    /// program whose last kernel has been dropped.
    fn park(&mut self, programs: impl IntoIterator<Item = ProgramRef>) {
        self.parked.extend(programs);
        let gl = &mut self.gl;
        let stats = &mut self.stats;
        self.parked.retain(|program| {
            let unused = Arc::strong_count(program) == 1;
            if unused {
                gl.delete_program(**program);
                stats.programs_deleted += 1;
            }
            !unused
        });
    }

    /// Deletes every pooled render target.
    pub fn clear_target_pool(&mut self) {
        self.reclaim();
        for (_, textures) in self.target_pool.drain() {
            for id in textures {
                self.gl.delete_texture(id);
            }
        }
        self.pooled_textures = 0;
    }

    /// Escape hatch to the underlying GL context.
    pub fn gl(&mut self) -> &mut Context {
        &mut self.gl
    }

    /// Installs a deterministic driver [`gpes_gles2::FaultPlan`] on the
    /// underlying context — see [`gpes_gles2::Context::install_fault_plan`].
    pub fn install_fault_plan(&mut self, plan: gpes_gles2::FaultPlan) {
        self.gl.install_fault_plan(plan);
    }

    /// Removes and returns the installed fault plan with its advanced
    /// state, so it can follow the worker onto a rebuilt context.
    pub fn take_fault_plan(&mut self) -> Option<gpes_gles2::FaultPlan> {
        self.gl.take_fault_plan()
    }

    /// Whether the underlying GL context has been lost (poisoned): every
    /// further GL call fails with `GlError::ContextLost` until the
    /// context is torn down and rebuilt.
    pub fn context_lost(&self) -> bool {
        self.gl.is_lost()
    }

    /// Faults the installed plan has injected so far (`0` with none).
    pub fn faults_injected(&self) -> u64 {
        self.gl.faults_injected()
    }

    /// The output byte bias mode (ablation A1). Takes effect for kernels
    /// built afterwards.
    pub fn set_pack_bias(&mut self, bias: PackBias) {
        self.pack_bias = bias;
    }

    /// Current pack bias.
    pub fn pack_bias(&self) -> PackBias {
        self.pack_bias
    }

    /// Float special-value handling for kernels built afterwards.
    pub fn set_float_specials(&mut self, specials: FloatSpecials) {
        self.specials = specials;
    }

    /// Current special-value handling.
    pub fn float_specials(&self) -> FloatSpecials {
        self.specials
    }

    /// Sets the simulated GPU float model (experiment E2).
    pub fn set_float_model(&mut self, model: FloatModel) {
        self.gl.set_float_model(model);
    }

    /// Sets fragment dispatch parallelism.
    pub fn set_dispatch(&mut self, dispatch: Dispatch) {
        self.gl.set_dispatch(dispatch);
    }

    /// Selects the shader execution mode: the SPMD lane VM (default) or
    /// the tree-walking interpreter retained as the differential-testing
    /// oracle. Both are bit-identical in outputs and op profiles.
    pub fn set_exec_mode(&mut self, mode: ExecMode) {
        self.gl.set_exec_mode(mode);
    }

    /// The current shader execution mode.
    pub fn exec_mode(&self) -> ExecMode {
        self.gl.exec_mode()
    }

    /// Maximum texture side length supported by the driver.
    pub fn max_texture_side(&self) -> u32 {
        self.gl.limits().max_texture_size
    }

    // ---- uploads ---------------------------------------------------------

    /// Uploads a slice as a [`GpuArray`] (near-square texture layout,
    /// nearest filtering, clamp-to-edge).
    ///
    /// # Errors
    ///
    /// Layout or GL errors (e.g. data larger than the texture limit).
    pub fn upload<T: GpuScalar>(&mut self, data: &[T]) -> Result<GpuArray<T>, ComputeError> {
        let layout = ArrayLayout::for_len(data.len(), self.max_texture_side())?;
        let texture = self.upload_with_layout(data, layout)?;
        Ok(GpuArray::new(texture, layout))
    }

    /// Uploads a row-major matrix as a [`GpuMatrix`]
    /// (texel `(col, row)` = element `(row, col)`).
    ///
    /// # Errors
    ///
    /// `BadKernel` when `data.len() != rows*cols`; layout/GL errors.
    pub fn upload_matrix<T: GpuScalar>(
        &mut self,
        rows: u32,
        cols: u32,
        data: &[T],
    ) -> Result<GpuMatrix<T>, ComputeError> {
        if data.len() != rows as usize * cols as usize {
            return Err(ComputeError::bad_kernel(format!(
                "matrix data length {} does not match {rows}x{cols}",
                data.len()
            )));
        }
        let layout = ArrayLayout::grid(rows, cols, self.max_texture_side())?;
        let texture = self.upload_with_layout(data, layout)?;
        Ok(GpuMatrix::new(texture, layout))
    }

    fn upload_with_layout<T: GpuScalar>(
        &mut self,
        data: &[T],
        layout: ArrayLayout,
    ) -> Result<TextureId, ComputeError> {
        self.note_host_transfer(T::SCALAR);
        let texels = T::encode_texels(data, layout.texel_count());
        self.image_texture(T::tex_format(), layout, &texels)
    }

    /// The one upload sequence: a texture of `layout`'s size imaged with
    /// `bytes`, nearest-filtered and clamped. On error the guard gives
    /// the texture back (one the failed image left without storage goes
    /// to the blank bucket `blank_texture` draws on).
    fn image_texture(
        &mut self,
        format: TexFormat,
        layout: ArrayLayout,
        bytes: &[u8],
    ) -> Result<TextureId, ComputeError> {
        let (texture, _) = self.alloc_texture(format, layout);
        let (width, height) = (layout.width, layout.height);
        self.gl
            .tex_image_2d(texture.id(), format, width, height, bytes)?;
        self.gl
            .set_texture_filter(texture.id(), Filter::Nearest, Filter::Nearest)?;
        self.gl
            .set_texture_wrap(texture.id(), Wrap::ClampToEdge, Wrap::ClampToEdge)?;
        Ok(texture.into_id())
    }

    /// Frees the texture behind an array.
    pub fn delete_array<T: GpuScalar>(&mut self, array: GpuArray<T>) {
        self.gl.delete_texture(array.texture);
    }

    /// Frees the texture behind a matrix.
    pub fn delete_matrix<T: GpuScalar>(&mut self, matrix: GpuMatrix<T>) {
        self.gl.delete_texture(matrix.texture);
    }

    /// Returns an array's texture to the render-target pool instead of
    /// deleting it — the right retirement for ping-pong intermediates, so
    /// the next same-shaped render-to-texture dispatch allocates nothing.
    /// Non-RGBA8 textures (byte/short uploads) cannot serve as render
    /// targets and are deleted instead.
    pub fn recycle_array<T: GpuScalar>(&mut self, array: GpuArray<T>) {
        self.recycle_texture(array.texture);
    }

    /// [`ComputeContext::recycle_array`] for matrices.
    pub fn recycle_matrix<T: GpuScalar>(&mut self, matrix: GpuMatrix<T>) {
        self.recycle_texture(matrix.texture);
    }

    /// [`ComputeContext::recycle_array`] for raw texel buffers.
    pub fn recycle_texels(&mut self, texels: GpuTexels) {
        self.recycle_texture(texels.texture);
    }

    pub(crate) fn recycle_texture(&mut self, id: TextureId) {
        match self.gl.texture_info(id) {
            // Buckets are keyed by format as well as size: RGBA8 entries
            // can serve as render targets with storage in place, while
            // byte/short upload formats (LUMINANCE8, LUMINANCE_ALPHA8)
            // are re-imaged on reuse — pooling them keeps a steady-state
            // quantized upload loop at zero texture creations.
            Ok((format, w, h)) if self.pooled_textures < POOL_TOTAL_CAP => {
                let bucket = self.target_pool.entry((format, w, h)).or_default();
                if bucket.len() < POOL_BUCKET_CAP {
                    bucket.push(id);
                    self.pooled_textures += 1;
                    self.stats.textures_recycled += 1;
                } else {
                    self.gl.delete_texture(id);
                }
            }
            // Stale handles and pool overflow just go away.
            _ => self.gl.delete_texture(id),
        }
    }

    // Typed convenience aliases (discoverability).

    /// Uploads `f32` data; alias of [`ComputeContext::upload`].
    pub fn upload_f32(&mut self, data: &[f32]) -> Result<GpuArray<f32>, ComputeError> {
        self.upload(data)
    }

    /// Uploads `u32` data; alias of [`ComputeContext::upload`].
    pub fn upload_u32(&mut self, data: &[u32]) -> Result<GpuArray<u32>, ComputeError> {
        self.upload(data)
    }

    /// Uploads `i32` data; alias of [`ComputeContext::upload`].
    pub fn upload_i32(&mut self, data: &[i32]) -> Result<GpuArray<i32>, ComputeError> {
        self.upload(data)
    }

    /// Uploads `u8` data; alias of [`ComputeContext::upload`].
    pub fn upload_u8(&mut self, data: &[u8]) -> Result<GpuArray<u8>, ComputeError> {
        self.upload(data)
    }

    /// Uploads `u16` data; alias of [`ComputeContext::upload`].
    pub fn upload_u16(&mut self, data: &[u16]) -> Result<GpuArray<u16>, ComputeError> {
        self.upload(data)
    }

    /// Uploads `i16` data; alias of [`ComputeContext::upload`].
    pub fn upload_i16(&mut self, data: &[i16]) -> Result<GpuArray<i16>, ComputeError> {
        self.upload(data)
    }

    /// Uploads `i8` data; alias of [`ComputeContext::upload`].
    pub fn upload_i8(&mut self, data: &[i8]) -> Result<GpuArray<i8>, ComputeError> {
        self.upload(data)
    }

    /// Uploads raw RGBA8 texels (`4·width·height` bytes) as an untyped
    /// [`GpuTexels`] buffer for kernels that interpret texels themselves.
    ///
    /// # Errors
    ///
    /// `BadKernel` when the byte count does not match the dimensions;
    /// layout/GL errors as in [`ComputeContext::upload`].
    pub fn upload_texels(
        &mut self,
        width: u32,
        height: u32,
        bytes: &[u8],
    ) -> Result<GpuTexels, ComputeError> {
        if bytes.len() != 4 * width as usize * height as usize {
            return Err(ComputeError::bad_kernel(format!(
                "texel data is {} bytes, {width}x{height} RGBA8 needs {}",
                bytes.len(),
                4 * width as usize * height as usize
            )));
        }
        let layout = ArrayLayout::grid(height, width, self.max_texture_side())?;
        let texture = self.image_texture(TexFormat::Rgba8, layout, bytes)?;
        Ok(GpuTexels::new(texture, layout))
    }

    /// Uploads a linear run of RGBA8 texels into a near-square texture.
    ///
    /// # Errors
    ///
    /// Layout or GL errors (e.g. more texels than the texture limit).
    pub fn upload_texels_linear(&mut self, texels: &[[u8; 4]]) -> Result<GpuTexels, ComputeError> {
        let layout = ArrayLayout::for_len(texels.len(), self.max_texture_side())?;
        let mut bytes = texels.concat();
        bytes.resize(layout.texel_count() * 4, 0);
        let texture = self.image_texture(TexFormat::Rgba8, layout, &bytes)?;
        Ok(GpuTexels::new(texture, layout))
    }

    /// Frees the texture behind a texel buffer.
    pub fn delete_texels(&mut self, texels: GpuTexels) {
        self.gl.delete_texture(texels.texture);
    }

    // ---- kernel plumbing (used by KernelBuilder) ----------------------------

    /// Compiles (or fetches from the cache) a program pair; a fragment
    /// source that begins with `fs_prelude`'s text is checked after it.
    pub(crate) fn compile_program_cached(
        &mut self,
        vs: &str,
        fs: &str,
        fs_prelude: Option<&Arc<CheckedPrelude>>,
    ) -> Result<ProgramRef, ComputeError> {
        let key = format!("{vs}\u{0}{fs}");
        if self.program_cache_enabled {
            if let Some(program) = self.program_cache.get(&key) {
                self.stats.program_cache_hits += 1;
                return Ok(Arc::clone(program));
            }
        }
        // Local miss: adopt from the process-wide cache when one is
        // attached (linking there at most once per source per process),
        // otherwise link in this context.
        let shared = if self.program_cache_enabled {
            self.shared_cache.clone()
        } else {
            None
        };
        let id = match shared {
            Some(shared) => {
                let strict = self.gl.strict_shaders();
                let program = shared.get_or_link(vs, fs, fs_prelude, self.gl.limits(), strict)?;
                self.stats.programs_adopted += 1;
                self.gl.install_program((*program).clone())
            }
            None => {
                let id = self.gl.create_program_after(fs_prelude, vs, fs)?;
                self.stats.programs_linked += 1;
                id
            }
        };
        let program = Arc::new(id);
        // With the cache off the program leaves it at once: it is deleted
        // after the kernel that asked for it is dropped.
        let evicted = if self.program_cache_enabled {
            self.program_cache.insert(key, Arc::clone(&program))
        } else {
            vec![(key, Arc::clone(&program))]
        };
        self.park(evicted.into_iter().map(|(_, program)| program));
        Ok(program)
    }

    pub(crate) fn compile_kernel_program(
        &mut self,
        fragment_source: &str,
        prelude: &Arc<CheckedPrelude>,
    ) -> Result<ProgramRef, ComputeError> {
        let vs = geometry::passthrough_vertex_shader();
        self.compile_program_cached(&vs, fragment_source, Some(prelude))
    }

    /// Updates a *default* uniform declared at build time; alias of
    /// [`Kernel::set_uniform`] kept for call-site symmetry with the
    /// dispatch methods.
    ///
    /// # Errors
    ///
    /// `BadKernel` for unknown names or type mismatches.
    pub fn set_kernel_uniform(
        &mut self,
        kernel: &mut Kernel,
        name: &str,
        value: Value,
    ) -> Result<(), ComputeError> {
        kernel.set_uniform(name, value)
    }

    // ---- binding resolution + execution -------------------------------------

    /// Checks a [`Bindings`] override set against a kernel's signature and
    /// merges it with the kernel's defaults.
    fn resolve_bindings(
        &self,
        kernel: &Kernel,
        bindings: &Bindings,
    ) -> Result<ResolvedDispatch, ComputeError> {
        for b in &bindings.inputs {
            let spec = kernel
                .inputs
                .iter()
                .find(|s| s.name == b.name)
                .ok_or_else(|| {
                    ComputeError::bad_kernel(format!(
                        "kernel `{}` declares no input `{}`",
                        kernel.name, b.name
                    ))
                })?;
            if spec.encoding != b.encoding {
                return Err(ComputeError::bad_kernel(format!(
                    "input `{}` of kernel `{}` is declared {:?}, bound {:?}",
                    b.name, kernel.name, spec.encoding, b.encoding
                )));
            }
        }
        for (name, value) in &bindings.uniforms {
            check_uniform(&kernel.name, &kernel.uniforms, name, Some(value))?;
        }
        let layout = match bindings.output {
            None => kernel.output_layout,
            Some(shape) => shape.resolve(self.max_texture_side())?,
        };
        let inputs = kernel
            .inputs
            .iter()
            .map(|spec| {
                bindings
                    .inputs
                    .iter()
                    .find(|b| b.name == spec.name)
                    .map(|b| (b.texture, b.layout))
                    .or(spec.default)
                    .ok_or_else(|| unbound_input(&kernel.name, &spec.name))
            })
            .collect::<Result<_, _>>()?;
        Ok(ResolvedDispatch { layout, inputs })
    }

    /// Issues one draw for `kernel` under resolved bindings. All uniform
    /// state (sampler units, dimension vectors, user uniforms) is applied
    /// here, per dispatch — programs are shared through the cache, so
    /// nothing may rely on values persisting inside the GL program. The
    /// kernel's declared defaults go first, then each `overrides` slice in
    /// order (later wins).
    pub(crate) fn dispatch_resolved(
        &mut self,
        kernel: &Kernel,
        resolved: &ResolvedDispatch,
        overrides: &[&[(String, Value)]],
        to_screen: bool,
        reused_target: bool,
    ) -> Result<DrawStats, ComputeError> {
        self.gl.use_program(*kernel.program)?;
        self.gl.set_uniform(
            "u_out_dims",
            Value::Vec2([resolved.layout.width as f32, resolved.layout.height as f32]),
        )?;
        for (unit, ((sampler, dims), &(texture, layout))) in kernel
            .input_uniform_names
            .iter()
            .zip(&resolved.inputs)
            .enumerate()
        {
            self.gl.bind_texture(unit as u32, texture)?;
            self.gl.set_uniform(sampler, Value::Int(unit as i32))?;
            self.gl.set_uniform(
                dims,
                Value::Vec2([layout.width as f32, layout.height as f32]),
            )?;
        }
        for unit in kernel.inputs.len()..self.gl.limits().max_texture_units {
            self.gl.unbind_texture(unit as u32);
        }
        for (name, value) in kernel
            .uniforms
            .iter()
            .chain(overrides.iter().flat_map(|slice| slice.iter()))
        {
            self.gl.set_uniform(name, value.clone())?;
        }
        self.gl
            .set_attribute(POSITION_ATTRIBUTE, 2, &FULLSCREEN_QUAD)?;
        let (w, h) = (resolved.layout.width, resolved.layout.height);
        if to_screen {
            self.gl.bind_framebuffer(None)?;
        }
        self.gl.viewport(0, 0, w as i32, h as i32);
        let stats = self
            .gl
            .draw_arrays(PrimitiveMode::Triangles, 0, FULLSCREEN_QUAD_VERTICES)?;
        self.note_draw(&stats);
        self.pass_log.push(PassRecord {
            kernel: kernel.name.clone(),
            stats,
            output_texels: resolved.layout.texel_count() as u64,
            reused_target,
        });
        Ok(stats)
    }

    /// Pops a valid same-format same-sized texture from the recycling
    /// pool, if any.
    fn pooled_texture(&mut self, format: TexFormat, width: u32, height: u32) -> Option<TextureId> {
        let pool = self.target_pool.get_mut(&(format, width, height))?;
        while let Some(id) = pool.pop() {
            self.pooled_textures = self.pooled_textures.saturating_sub(1);
            // Skip handles the caller deleted behind the pool's back.
            if self.gl.texture_info(id).is_ok() {
                self.stats.texture_pool_hits += 1;
                return Some(id);
            }
        }
        None
    }

    /// Holds `id`, a texture this context issued, in a guard that gives
    /// it back to this context's pool when dropped.
    pub(crate) fn own(&self, id: TextureId) -> OwnedTexture {
        OwnedTexture {
            id,
            returns: Some(Arc::clone(&self.returns)),
        }
    }

    /// Puts every texture whose guard dropped back into the pool, as an
    /// explicit `recycle_*` would have.
    pub(crate) fn reclaim(&mut self) {
        let returns = Arc::clone(&self.returns);
        let mut returned = returns.lock().unwrap_or_else(PoisonError::into_inner);
        for id in returned.drain(..) {
            self.recycle_texture(id);
        }
    }

    /// A guarded texture object for `layout`'s texels of `format`, after
    /// reclaiming dropped guards: recycled when the pool has one (`true`;
    /// the caller re-images or overdraws it), blank otherwise.
    fn alloc_texture(&mut self, format: TexFormat, layout: ArrayLayout) -> (OwnedTexture, bool) {
        self.reclaim();
        let pooled = self.pooled_texture(format, layout.width, layout.height);
        let id = pooled.unwrap_or_else(|| self.blank_texture());
        (self.own(id), pooled.is_some())
    }

    /// A texture object without storage: one a failed upload gave back
    /// (recycled storage-less, it pools as `Rgba8` 0×0), else a new one.
    fn blank_texture(&mut self) -> TextureId {
        self.pooled_texture(TexFormat::Rgba8, 0, 0)
            .unwrap_or_else(|| {
                self.stats.textures_created += 1;
                self.gl.create_texture()
            })
    }

    /// Acquires an RGBA8 render target shaped like `layout` — from the
    /// recycling pool when possible — attaches it to the scratch FBO and
    /// leaves that FBO bound. Returns the texture and whether it was
    /// pooled.
    fn acquire_render_target(
        &mut self,
        layout: ArrayLayout,
    ) -> Result<(OwnedTexture, bool), ComputeError> {
        // Pooled textures are always RGBA8 with storage in place; kernel
        // dispatches draw a full-coverage quad that overwrites every
        // texel, so no clear is needed (callers driving scissored draws
        // through the raw `gl()` hatch must clear themselves). Sampler
        // parameters are re-asserted in case the caller changed them on
        // the recycled texture.
        let (target, pooled) = self.alloc_texture(TexFormat::Rgba8, layout);
        if !pooled {
            self.gl
                .tex_storage(target.id(), TexFormat::Rgba8, layout.width, layout.height)?;
        }
        self.gl
            .set_texture_filter(target.id(), Filter::Nearest, Filter::Nearest)?;
        self.gl
            .set_texture_wrap(target.id(), Wrap::ClampToEdge, Wrap::ClampToEdge)?;
        self.gl.framebuffer_texture(self.scratch_fbo, target.id())?;
        self.gl.bind_framebuffer(Some(self.scratch_fbo))?;
        Ok((target, pooled))
    }

    /// Renders one pass into a texture and returns it: into `target`
    /// when given (the pipeline's in-place fast path), else into a render
    /// target acquired from the pool. `draw` issues the draw with the
    /// scratch FBO bound and learns whether the target was reused. The
    /// FBO is always unbound afterwards; on error the guard gives the
    /// target back.
    pub(crate) fn render_to_texture(
        &mut self,
        layout: ArrayLayout,
        target: Option<OwnedTexture>,
        draw: impl FnOnce(&mut ComputeContext, bool) -> Result<(), ComputeError>,
    ) -> Result<OwnedTexture, ComputeError> {
        let (texture, reused) = match target {
            Some(texture) => {
                self.gl
                    .framebuffer_texture(self.scratch_fbo, texture.id())?;
                self.gl.bind_framebuffer(Some(self.scratch_fbo))?;
                (texture, true)
            }
            None => self.acquire_render_target(layout)?,
        };
        let drawn = draw(self, reused);
        let unbound = self.gl.bind_framebuffer(None);
        drawn?;
        unbound?;
        Ok(texture)
    }

    /// Draws `kernel` under `bindings` into a pooled render target
    /// ([`ComputeContext::render_to_texture`]).
    fn draw_to_texture(
        &mut self,
        kernel: &Kernel,
        bindings: &Bindings,
    ) -> Result<(TextureId, ArrayLayout), ComputeError> {
        let resolved = self.resolve_bindings(kernel, bindings)?;
        let target = self.render_to_texture(resolved.layout, None, |cc, pooled| {
            cc.dispatch_resolved(kernel, &resolved, &[&bindings.uniforms], false, pooled)
                .map(drop)
        })?;
        Ok((target.into_id(), resolved.layout))
    }

    /// Runs a kernel into a render-to-texture target under explicit
    /// [`Bindings`], returning the result as a new [`GpuArray`].
    ///
    /// # Errors
    ///
    /// `BadKernel` when `T` does not match the kernel's declared output
    /// type or the bindings disagree with the kernel signature; GL/shader
    /// errors during the draw.
    pub fn run_to_array_with<T: GpuScalar>(
        &mut self,
        kernel: &Kernel,
        bindings: &Bindings,
    ) -> Result<GpuArray<T>, ComputeError> {
        check_output::<T>(kernel)?;
        let (target, layout) = self.draw_to_texture(kernel, bindings)?;
        Ok(GpuArray::new(target, layout))
    }

    /// Runs a kernel into a fresh texture (render-to-texture) under its
    /// build-time default bindings.
    ///
    /// # Errors
    ///
    /// As [`ComputeContext::run_to_array_with`].
    pub fn run_to_array<T: GpuScalar>(
        &mut self,
        kernel: &Kernel,
    ) -> Result<GpuArray<T>, ComputeError> {
        self.run_to_array_with(kernel, &Bindings::new())
    }

    /// Runs a kernel straight into the default framebuffer — the paper's
    /// "careful kernel ordering" readback strategy (workaround #7) — and
    /// decodes the result, under explicit [`Bindings`].
    ///
    /// # Errors
    ///
    /// [`ComputeError::TooLarge`] when the output exceeds the screen;
    /// type-mismatch and GL errors as in
    /// [`ComputeContext::run_to_array_with`].
    pub fn run_and_read_with<T: GpuScalar>(
        &mut self,
        kernel: &Kernel,
        bindings: &Bindings,
    ) -> Result<Vec<T>, ComputeError> {
        check_output::<T>(kernel)?;
        let (bytes, layout) = self.draw_to_screen(kernel, bindings)?;
        self.note_host_transfer(T::SCALAR);
        Ok(T::decode_framebuffer(&bytes, layout.len))
    }

    /// Draws `kernel` under `bindings` into the default framebuffer and
    /// reads the output's texels back.
    fn draw_to_screen(
        &mut self,
        kernel: &Kernel,
        bindings: &Bindings,
    ) -> Result<(Vec<u8>, ArrayLayout), ComputeError> {
        let resolved = self.resolve_bindings(kernel, bindings)?;
        let layout = resolved.layout;
        self.check_fits_screen("kernel output", layout)?;
        self.dispatch_resolved(kernel, &resolved, &[&bindings.uniforms], true, false)?;
        let bytes = self.gl.read_pixels(0, 0, layout.width, layout.height)?;
        Ok((bytes, layout))
    }

    /// [`ComputeError::TooLarge`] unless `layout` fits the screen.
    fn check_fits_screen(&self, what: &str, layout: ArrayLayout) -> Result<(), ComputeError> {
        let (sw, sh) = self.screen_size();
        if layout.width > sw || layout.height > sh {
            return Err(ComputeError::TooLarge {
                what: format!(
                    "{what} {}x{} vs {sw}x{sh} screen",
                    layout.width, layout.height
                ),
            });
        }
        Ok(())
    }

    /// Default-bindings form of [`ComputeContext::run_and_read_with`].
    ///
    /// # Errors
    ///
    /// As [`ComputeContext::run_and_read_with`].
    pub fn run_and_read<T: GpuScalar>(&mut self, kernel: &Kernel) -> Result<Vec<T>, ComputeError> {
        self.run_and_read_with(kernel, &Bindings::new())
    }

    /// Alias of [`ComputeContext::run_and_read`] for `f32` kernels.
    pub fn run_f32(&mut self, kernel: &Kernel) -> Result<Vec<f32>, ComputeError> {
        self.run_and_read(kernel)
    }

    /// Alias of [`ComputeContext::run_and_read_with`] for `f32` kernels.
    pub fn run_f32_with(
        &mut self,
        kernel: &Kernel,
        bindings: &Bindings,
    ) -> Result<Vec<f32>, ComputeError> {
        self.run_and_read_with(kernel, bindings)
    }

    /// Runs a raw-texel kernel into a render target under explicit
    /// [`Bindings`] and returns the untyped result for further passes.
    ///
    /// # Errors
    ///
    /// `BadKernel` when the kernel has a scalar (non-raw) output or the
    /// bindings disagree with the signature; GL or shader errors.
    pub fn run_to_texels_with(
        &mut self,
        kernel: &Kernel,
        bindings: &Bindings,
    ) -> Result<GpuTexels, ComputeError> {
        if kernel.output_kind != OutputKind::RawTexel {
            return Err(ComputeError::bad_kernel(format!(
                "kernel `{}` has a scalar output; use run_to_array",
                kernel.name
            )));
        }
        let (target, layout) = self.draw_to_texture(kernel, bindings)?;
        Ok(GpuTexels::new(target, layout))
    }

    /// Default-bindings form of [`ComputeContext::run_to_texels_with`].
    ///
    /// # Errors
    ///
    /// As [`ComputeContext::run_to_texels_with`].
    pub fn run_to_texels(&mut self, kernel: &Kernel) -> Result<GpuTexels, ComputeError> {
        self.run_to_texels_with(kernel, &Bindings::new())
    }

    /// Runs a raw-texel kernel straight into the default framebuffer under
    /// explicit [`Bindings`] and returns the RGBA bytes row by row.
    ///
    /// # Errors
    ///
    /// `BadKernel` for scalar-output kernels, [`ComputeError::TooLarge`]
    /// when the output exceeds the screen, and GL errors.
    pub fn run_and_read_texels_with(
        &mut self,
        kernel: &Kernel,
        bindings: &Bindings,
    ) -> Result<Vec<u8>, ComputeError> {
        if kernel.output_kind != OutputKind::RawTexel {
            return Err(ComputeError::bad_kernel(format!(
                "kernel `{}` has a scalar output; use run_and_read",
                kernel.name
            )));
        }
        Ok(self.draw_to_screen(kernel, bindings)?.0)
    }

    /// Default-bindings form of
    /// [`ComputeContext::run_and_read_texels_with`].
    ///
    /// # Errors
    ///
    /// As [`ComputeContext::run_and_read_texels_with`].
    pub fn run_and_read_texels(&mut self, kernel: &Kernel) -> Result<Vec<u8>, ComputeError> {
        self.run_and_read_texels_with(kernel, &Bindings::new())
    }

    /// Reads a texel buffer back as RGBA bytes through the FBO path.
    ///
    /// # Errors
    ///
    /// GL errors (e.g. a deleted backing texture).
    pub fn read_texels(&mut self, texels: &GpuTexels) -> Result<Vec<u8>, ComputeError> {
        self.read_through_fbo(texels.texture, texels.layout)
    }

    /// Reads a texture's texels through the scratch FBO.
    fn read_through_fbo(
        &mut self,
        texture: TextureId,
        layout: ArrayLayout,
    ) -> Result<Vec<u8>, ComputeError> {
        self.gl.framebuffer_texture(self.scratch_fbo, texture)?;
        self.gl.bind_framebuffer(Some(self.scratch_fbo))?;
        let bytes = self.gl.read_pixels(0, 0, layout.width, layout.height);
        self.gl.bind_framebuffer(None)?;
        Ok(bytes?)
    }

    /// Reads an array back to host memory using the chosen strategy.
    ///
    /// # Errors
    ///
    /// GL errors; `TooLarge` for the copy-shader path when the array
    /// exceeds the screen.
    pub fn read_array<T: GpuScalar>(
        &mut self,
        array: &GpuArray<T>,
        strategy: Readback,
    ) -> Result<Vec<T>, ComputeError> {
        let layout = array.layout;
        let bytes = match strategy {
            Readback::DirectFbo => self.read_through_fbo(array.texture, layout)?,
            Readback::CopyShader => {
                self.check_fits_screen("array", layout)?;
                let copy = self.copy_program()?;
                self.gl.bind_framebuffer(None)?;
                self.gl.use_program(copy)?;
                self.gl.bind_texture(0, array.texture)?;
                for unit in 1..self.gl.limits().max_texture_units {
                    self.gl.unbind_texture(unit as u32);
                }
                self.gl.set_uniform("u_src", Value::Int(0))?;
                self.gl
                    .set_attribute(POSITION_ATTRIBUTE, 2, &FULLSCREEN_QUAD)?;
                self.gl
                    .viewport(0, 0, layout.width as i32, layout.height as i32);
                let stats =
                    self.gl
                        .draw_arrays(PrimitiveMode::Triangles, 0, FULLSCREEN_QUAD_VERTICES)?;
                self.note_draw(&stats);
                self.pass_log.push(PassRecord {
                    kernel: "gpes.copy".into(),
                    stats,
                    output_texels: layout.texel_count() as u64,
                    reused_target: false,
                });
                self.gl.read_pixels(0, 0, layout.width, layout.height)?
            }
        };
        self.note_host_transfer(T::SCALAR);
        Ok(T::decode_framebuffer(&bytes, layout.len))
    }

    /// [`ComputeContext::read_array`] over a runtime-tagged array: decodes
    /// through the codec named by the array's scalar tag and returns the
    /// matching [`TensorData`] variant — u8/i16 buffers come back as
    /// themselves, never widened through f32 on the host.
    ///
    /// # Errors
    ///
    /// As [`ComputeContext::read_array`].
    pub fn read_array_any(
        &mut self,
        array: &AnyGpuArray,
        strategy: Readback,
    ) -> Result<TensorData, ComputeError> {
        fn typed<T: GpuScalar>(
            cc: &mut ComputeContext,
            array: &AnyGpuArray,
            strategy: Readback,
        ) -> Result<Vec<T>, ComputeError> {
            let typed = array.downcast::<T>().expect("scalar matched by caller");
            cc.read_array(&typed, strategy)
        }
        Ok(match array.scalar() {
            ScalarType::U8 => TensorData::U8(typed(self, array, strategy)?),
            ScalarType::I8 => TensorData::I8(typed(self, array, strategy)?),
            ScalarType::U16 => TensorData::U16(typed(self, array, strategy)?),
            ScalarType::I16 => TensorData::I16(typed(self, array, strategy)?),
            ScalarType::U32 => TensorData::U32(typed(self, array, strategy)?),
            ScalarType::I32 => TensorData::I32(typed(self, array, strategy)?),
            ScalarType::F32 => TensorData::F32(typed(self, array, strategy)?),
        })
    }

    /// Uploads a runtime-tagged tensor as a linear array, preserving its
    /// scalar format on the wire (a u8 tensor travels through the
    /// LUMINANCE8 path, an i16 one through LUMINANCE_ALPHA8, …).
    ///
    /// # Errors
    ///
    /// As [`ComputeContext::upload`].
    pub fn upload_any(&mut self, data: &TensorData) -> Result<AnyGpuArray, ComputeError> {
        Ok(match data {
            TensorData::U8(v) => self.upload(v)?.erase(),
            TensorData::I8(v) => self.upload(v)?.erase(),
            TensorData::U16(v) => self.upload(v)?.erase(),
            TensorData::I16(v) => self.upload(v)?.erase(),
            TensorData::U32(v) => self.upload(v)?.erase(),
            TensorData::I32(v) => self.upload(v)?.erase(),
            TensorData::F32(v) => self.upload(v)?.erase(),
        })
    }

    /// Uploads a runtime-tagged tensor as a `rows × cols` matrix viewed
    /// linearly; the grid shape drives the texture layout exactly as
    /// [`ComputeContext::upload_matrix`].
    ///
    /// # Errors
    ///
    /// As [`ComputeContext::upload_matrix`].
    pub fn upload_any_matrix(
        &mut self,
        rows: u32,
        cols: u32,
        data: &TensorData,
    ) -> Result<AnyGpuArray, ComputeError> {
        Ok(match data {
            TensorData::U8(v) => self.upload_matrix(rows, cols, v)?.as_array().erase(),
            TensorData::I8(v) => self.upload_matrix(rows, cols, v)?.as_array().erase(),
            TensorData::U16(v) => self.upload_matrix(rows, cols, v)?.as_array().erase(),
            TensorData::I16(v) => self.upload_matrix(rows, cols, v)?.as_array().erase(),
            TensorData::U32(v) => self.upload_matrix(rows, cols, v)?.as_array().erase(),
            TensorData::I32(v) => self.upload_matrix(rows, cols, v)?.as_array().erase(),
            TensorData::F32(v) => self.upload_matrix(rows, cols, v)?.as_array().erase(),
        })
    }

    /// [`ComputeContext::recycle_array`] for runtime-tagged arrays.
    pub fn recycle_any(&mut self, array: AnyGpuArray) {
        self.recycle_texture(array.texture());
    }

    /// Runs a kernel into a render-to-texture target under explicit
    /// [`Bindings`], returning a runtime-tagged handle carrying the
    /// kernel's declared output scalar — the dispatch path for serving
    /// workers chaining mixed-format passes.
    ///
    /// # Errors
    ///
    /// `BadKernel` for raw-texel kernels; binding/GL errors as
    /// [`ComputeContext::run_to_array_with`].
    pub fn run_to_array_any_with(
        &mut self,
        kernel: &Kernel,
        bindings: &Bindings,
    ) -> Result<AnyGpuArray, ComputeError> {
        let scalar = match kernel.output_kind {
            OutputKind::Scalar(scalar) => scalar,
            OutputKind::RawTexel => {
                return Err(ComputeError::bad_kernel(format!(
                    "kernel `{}` has a raw-texel output; use run_to_texels",
                    kernel.name
                )))
            }
        };
        let (texture, layout) = self.draw_to_texture(kernel, bindings)?;
        Ok(AnyGpuArray {
            texture,
            layout,
            scalar,
        })
    }

    fn copy_program(&mut self) -> Result<ProgramId, ComputeError> {
        if let Some(id) = self.copy_program {
            return Ok(id);
        }
        let id = self.gl.create_program(
            &geometry::passthrough_vertex_shader(),
            &geometry::copy_fragment_shader(),
        )?;
        self.copy_program = Some(id);
        Ok(id)
    }

    /// Dimensions of the default framebuffer ("screen").
    pub fn screen_size(&self) -> (u32, u32) {
        self.gl.default_size()
    }

    /// Folds one draw's executor counters into the context-lifetime stats.
    fn note_draw(&mut self, stats: &DrawStats) {
        self.stats.spmd_batches += stats.spmd_batches;
        self.stats.scalar_fallbacks += stats.scalar_fallbacks;
    }

    /// Counts one typed tensor crossing the host↔GPU boundary.
    fn note_host_transfer(&mut self, scalar: ScalarType) {
        if scalar == ScalarType::F32 {
            self.stats.f32_host_transfers += 1;
        } else {
            self.stats.quantized_host_transfers += 1;
        }
    }

    /// Records a pass executed outside the fragment-kernel dispatcher
    /// (used by the vertex-compute path).
    pub(crate) fn record_pass(&mut self, kernel: &str, stats: DrawStats, output_texels: u64) {
        self.note_draw(&stats);
        self.pass_log.push(PassRecord {
            kernel: kernel.to_owned(),
            stats,
            output_texels,
            reused_target: false,
        });
    }

    /// Drains the log of executed passes (kernel name + draw stats),
    /// consumed by the `gpes-perf` timing model.
    pub fn take_pass_log(&mut self) -> Vec<PassRecord> {
        std::mem::take(&mut self.pass_log)
    }

    /// Read-only view of the pass log.
    pub fn pass_log(&self) -> &[PassRecord] {
        &self.pass_log
    }
}

/// `BadKernel` unless `kernel` outputs `T` scalars.
fn check_output<T: GpuScalar>(kernel: &Kernel) -> Result<(), ComputeError> {
    if kernel.output_kind != OutputKind::Scalar(T::SCALAR) {
        return Err(ComputeError::bad_kernel(format!(
            "kernel `{}` outputs {:?}, requested {}",
            kernel.name,
            kernel.output_kind,
            T::SCALAR
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::ScalarType;

    #[test]
    fn upload_and_direct_read_round_trip_f32() {
        let mut cc = ComputeContext::new(16, 16).expect("context");
        let data = vec![1.5f32, -2.25, 3.75, 0.0, 1.0e-20];
        let arr = cc.upload(&data).expect("upload");
        let back = cc.read_array(&arr, Readback::DirectFbo).expect("read");
        assert_eq!(back, data);
    }

    #[test]
    fn upload_and_copy_shader_read_round_trip_u32() {
        let mut cc = ComputeContext::new(16, 16).expect("context");
        let data = vec![0u32, 1, 65535, 1 << 24, 123_456];
        let arr = cc.upload(&data).expect("upload");
        let back = cc.read_array(&arr, Readback::CopyShader).expect("read");
        assert_eq!(back, data);
    }

    #[test]
    fn byte_arrays_round_trip_both_strategies() {
        let mut cc = ComputeContext::new(16, 16).expect("context");
        let data: Vec<u8> = (0..=255).collect();
        let arr = cc.upload(&data).expect("upload");
        // LUMINANCE8 is not colour-renderable: DirectFbo must fail…
        let err = cc.read_array(&arr, Readback::DirectFbo).unwrap_err();
        assert!(matches!(err, ComputeError::Gl(_)));
        // …but the copy shader path works (it renders into RGBA8).
        let back = cc.read_array(&arr, Readback::CopyShader).expect("read");
        assert_eq!(back, data);
    }

    #[test]
    fn simple_kernel_end_to_end() {
        let mut cc = ComputeContext::new(16, 16).expect("context");
        let a = cc.upload(&[1.0f32, 2.0, 3.0, 4.0]).expect("a");
        let b = cc.upload(&[10.0f32, 20.0, 30.0, 40.0]).expect("b");
        let k = Kernel::builder("add")
            .input("a", &a)
            .input("b", &b)
            .output(ScalarType::F32, 4)
            .body("return fetch_a(idx) + fetch_b(idx);")
            .build(&mut cc)
            .expect("build");
        let out = cc.run_f32(&k).expect("run");
        assert_eq!(out, vec![11.0, 22.0, 33.0, 44.0]);
        assert_eq!(cc.pass_log().len(), 1);
        assert_eq!(cc.pass_log()[0].kernel, "add");
    }

    #[test]
    fn kernel_chaining_through_run_to_array() {
        let mut cc = ComputeContext::new(16, 16).expect("context");
        let a = cc.upload(&[1.0f32, 2.0, 3.0]).expect("a");
        let double = Kernel::builder("double")
            .input("a", &a)
            .output(ScalarType::F32, 3)
            .body("return fetch_a(idx) * 2.0;")
            .build(&mut cc)
            .expect("build double");
        let doubled: GpuArray<f32> = cc.run_to_array(&double).expect("run 1");
        let add_one = Kernel::builder("inc")
            .input("x", &doubled)
            .output(ScalarType::F32, 3)
            .body("return fetch_x(idx) + 1.0;")
            .build(&mut cc)
            .expect("build inc");
        let out = cc.run_f32(&add_one).expect("run 2");
        assert_eq!(out, vec![3.0, 5.0, 7.0]);
        assert_eq!(cc.take_pass_log().len(), 2);
        assert!(cc.pass_log().is_empty());
    }

    #[test]
    fn u16_kernel_end_to_end_and_chained() {
        let mut cc = ComputeContext::new(16, 16).expect("context");
        let a = cc.upload_u16(&[1, 300, 65000, 0x1234]).expect("a");
        let b = cc.upload_u16(&[2, 700, 535, 1]).expect("b");
        let k = Kernel::builder("add_u16")
            .input("a", &a)
            .input("b", &b)
            .output(ScalarType::U16, 4)
            .body("return mod(fetch_a(idx) + fetch_b(idx), 65536.0);")
            .build(&mut cc)
            .expect("build");
        let out: Vec<u16> = cc.run_and_read(&k).expect("run");
        assert_eq!(out, vec![3, 1000, 65535, 0x1235]);
        // Chain: the RGBA8 render target must fetch identically to the
        // LUMINANCE_ALPHA upload (.ra placement).
        let mid: GpuArray<u16> = cc.run_to_array(&k).expect("rtt");
        let inc = Kernel::builder("inc_u16")
            .input("x", &mid)
            .output(ScalarType::U16, 4)
            .body("return fetch_x(idx) + 1.0;")
            .build(&mut cc)
            .expect("build inc");
        let out: Vec<u16> = cc.run_and_read(&inc).expect("run inc");
        assert_eq!(out, vec![4, 1001, 0, 0x1236]); // 65535+1 wraps via mod in pack
    }

    #[test]
    fn i16_kernel_end_to_end() {
        let mut cc = ComputeContext::new(16, 16).expect("context");
        let v = cc
            .upload_i16(&[-5, 5, i16::MIN + 1, i16::MAX, -12345])
            .expect("v");
        let k = Kernel::builder("neg_i16")
            .input("v", &v)
            .output(ScalarType::I16, 5)
            .body("return -fetch_v(idx);")
            .build(&mut cc)
            .expect("build");
        let out: Vec<i16> = cc.run_and_read(&k).expect("run");
        assert_eq!(out, vec![5, -5, i16::MAX, i16::MIN + 1, 12345]);
    }

    #[test]
    fn texel_upload_and_raw_kernel_round_trip() {
        let mut cc = ComputeContext::new(16, 16).expect("context");
        let t = cc
            .upload_texels(2, 1, &[10, 20, 30, 40, 50, 60, 70, 80])
            .expect("texels");
        assert_eq!(t.len(), 2);
        let k = Kernel::builder("passthrough")
            .input_texels("t", &t)
            .output_texels(2)
            .body("return fetch_t_texel(idx);")
            .build(&mut cc)
            .expect("build");
        let bytes = cc.run_and_read_texels(&k).expect("run");
        assert_eq!(bytes, vec![10, 20, 30, 40, 50, 60, 70, 80]);
        // Render-to-texture + read_texels path agrees.
        let out = cc.run_to_texels(&k).expect("rtt");
        assert_eq!(cc.read_texels(&out).expect("read"), bytes);
        // Kind mismatches are rejected both ways.
        assert!(cc.run_and_read::<f32>(&k).is_err());
        let s = cc.upload(&[1.0f32]).expect("s");
        let scalar_kernel = Kernel::builder("id")
            .input("s", &s)
            .output(ScalarType::F32, 1)
            .body("return fetch_s(idx);")
            .build(&mut cc)
            .expect("build");
        assert!(cc.run_and_read_texels(&scalar_kernel).is_err());
        assert!(cc.run_to_texels(&scalar_kernel).is_err());
    }

    #[test]
    fn wrong_output_type_is_rejected() {
        let mut cc = ComputeContext::new(16, 16).expect("context");
        let a = cc.upload(&[1.0f32]).expect("a");
        let k = Kernel::builder("id")
            .input("a", &a)
            .output(ScalarType::F32, 1)
            .body("return fetch_a(idx);")
            .build(&mut cc)
            .expect("build");
        let err = cc.run_and_read::<u32>(&k).unwrap_err();
        assert!(matches!(err, ComputeError::BadKernel { .. }));
    }

    #[test]
    fn output_larger_than_screen_is_rejected_on_screen_path() {
        let mut cc = ComputeContext::new(4, 4).expect("context");
        let a = cc.upload(&vec![1.0f32; 100]).expect("a");
        let k = Kernel::builder("id")
            .input("a", &a)
            .output(ScalarType::F32, 100)
            .body("return fetch_a(idx);")
            .build(&mut cc)
            .expect("build");
        let err = cc.run_f32(&k).unwrap_err();
        assert!(matches!(err, ComputeError::TooLarge { .. }));
        // …but render-to-texture still works.
        let arr: GpuArray<f32> = cc.run_to_array(&k).expect("rtt");
        let back = cc.read_array(&arr, Readback::DirectFbo).expect("read");
        assert_eq!(back.len(), 100);
    }

    #[test]
    fn uniform_update_changes_result() {
        let mut cc = ComputeContext::new(8, 8).expect("context");
        let a = cc.upload(&[1.0f32, 2.0]).expect("a");
        let mut k = Kernel::builder("scale")
            .input("a", &a)
            .uniform_f32("gain", 2.0)
            .output(ScalarType::F32, 2)
            .body("return fetch_a(idx) * gain;")
            .build(&mut cc)
            .expect("build");
        assert_eq!(cc.run_f32(&k).expect("run"), vec![2.0, 4.0]);
        cc.set_kernel_uniform(&mut k, "gain", Value::Float(-3.0))
            .expect("set");
        assert_eq!(cc.run_f32(&k).expect("run"), vec![-3.0, -6.0]);
        // Overrides beat the default without touching it.
        let b = crate::Bindings::new().uniform_f32("gain", 10.0);
        assert_eq!(cc.run_f32_with(&k, &b).expect("run"), vec![10.0, 20.0]);
        assert_eq!(cc.run_f32(&k).expect("run"), vec![-3.0, -6.0]);
    }

    #[test]
    fn texture_pool_is_bounded() {
        let mut cc = ComputeContext::new(8, 8).expect("context");
        // Recycle far more same-shape textures than the bucket cap holds.
        for _ in 0..(2 * super::POOL_BUCKET_CAP) {
            let arr = cc.upload(&[1.0f32; 4]).expect("upload");
            cc.delete_array(arr); // ensure fresh allocations next upload
        }
        let mut arrays = Vec::new();
        for _ in 0..(2 * super::POOL_BUCKET_CAP) {
            arrays.push(cc.upload(&[1.0f32; 4]).expect("upload"));
        }
        for arr in arrays {
            cc.recycle_array(arr);
        }
        // Only POOL_BUCKET_CAP made it into the pool; the rest deleted.
        assert_eq!(cc.stats().textures_recycled, super::POOL_BUCKET_CAP as u64);
        assert_eq!(cc.pooled_textures, super::POOL_BUCKET_CAP);
        cc.clear_target_pool();
        assert_eq!(cc.pooled_textures, 0);
    }

    #[test]
    fn contexts_and_their_guards_cross_threads() {
        // Engine contexts are built on the caller's thread and moved into
        // the workers, and guards hold the context's return list.
        fn send<T: Send>() {}
        send::<ComputeContext>();
        send::<OwnedTexture>();
    }

    #[test]
    fn a_guard_gives_its_texture_back_only_to_the_context_that_issued_it() {
        let data = [1.0f32, 2.0, 3.0, 4.0];
        let mut issuer = ComputeContext::new(8, 8).expect("context");
        let mut other = ComputeContext::new(8, 8).expect("context");
        let array = issuer.upload(&data).expect("upload");
        drop(issuer.own(array.texture));
        other.upload(&data).expect("upload");
        assert_eq!(other.stats().texture_pool_hits, 0);
        issuer.upload(&data).expect("upload");
        assert_eq!(issuer.stats().texture_pool_hits, 1);
        assert_eq!(issuer.stats().textures_recycled, 1);
        // A guard that outlives its context, as one a replaced worker
        // context issued, gives its texture to no later context.
        let held = issuer.own(array.texture);
        drop(issuer);
        let mut fresh = ComputeContext::new(8, 8).expect("context");
        drop(held);
        fresh.upload(&data).expect("upload");
        assert_eq!(fresh.stats().texture_pool_hits, 0);
        assert_eq!(fresh.stats().textures_created, 1);
    }

    #[test]
    fn matrix_upload_and_fetch_rc() {
        let mut cc = ComputeContext::new(8, 8).expect("context");
        // 2x3 matrix [[1,2,3],[4,5,6]]
        let m = cc
            .upload_matrix(2, 3, &[1.0f32, 2.0, 3.0, 4.0, 5.0, 6.0])
            .expect("matrix");
        assert_eq!((m.rows(), m.cols()), (2, 3));
        // Transpose via fetch_rc.
        let k = Kernel::builder("transpose")
            .input_matrix("m", &m)
            .output_grid(ScalarType::F32, 3, 2)
            .body("return fetch_m_rc(col, row);")
            .build(&mut cc)
            .expect("build");
        let out = cc.run_f32(&k).expect("run");
        assert_eq!(out, vec![1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
    }

    /// GL programs the context holds right now.
    fn live_programs(cc: &ComputeContext) -> u64 {
        let stats = cc.stats();
        stats.programs_linked + stats.programs_adopted - stats.programs_deleted
    }

    /// A kernel whose generated source, and so whose program, is distinct
    /// for every `k`.
    fn scale_kernel(cc: &mut ComputeContext, a: &GpuArray<f32>, k: usize) -> Kernel {
        Kernel::builder(format!("scale_{k}"))
            .input("a", a)
            .output(ScalarType::F32, 4)
            .body(format!("return fetch_a(idx) * {k}.0 + 0.5;"))
            .build(cc)
            .expect("build")
    }

    #[test]
    fn program_cache_keeps_at_most_cap_unreferenced_programs() {
        let mut cc = ComputeContext::new(8, 8).expect("context");
        let a = cc.upload(&[1.0f32, -2.0, 3.5, 0.25]).expect("a");
        for k in 0..3 * PROGRAM_CACHE_CAP {
            let kernel = scale_kernel(&mut cc, &a, k);
            let out = cc.run_f32(&kernel).expect("run");
            let want: Vec<f32> = [1.0f32, -2.0, 3.5, 0.25]
                .iter()
                .map(|x| x * k as f32 + 0.5)
                .collect();
            assert_eq!(out, want, "kernel {k}");
            drop(kernel);
            assert!(live_programs(&cc) <= PROGRAM_CACHE_CAP as u64);
        }
        assert_eq!(cc.stats().programs_linked, 3 * PROGRAM_CACHE_CAP as u64);
        assert_eq!(cc.stats().programs_deleted, 2 * PROGRAM_CACHE_CAP as u64);
    }

    #[test]
    fn evicted_program_outlives_the_kernels_that_use_it() {
        let mut cc = ComputeContext::new(8, 8).expect("context");
        let a = cc.upload(&[1.0f32, -2.0, 3.5, 0.25]).expect("a");
        let held = scale_kernel(&mut cc, &a, 7);
        let copy = held.clone();
        let first = cc.run_f32(&held).expect("run");
        for k in 100..100 + 3 * PROGRAM_CACHE_CAP {
            drop(scale_kernel(&mut cc, &a, k));
        }
        // Evicted long ago, but still in use: parked, not deleted.
        assert_eq!(live_programs(&cc), PROGRAM_CACHE_CAP as u64 + 1);
        let again = cc.run_f32(&held).expect("held kernel still dispatches");
        assert_eq!(
            again.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            first.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
        // The last kernel using the program goes; the next build deletes it.
        drop(held);
        drop(scale_kernel(&mut cc, &a, 1));
        assert_eq!(live_programs(&cc), PROGRAM_CACHE_CAP as u64 + 1);
        assert_eq!(cc.run_f32(&copy).expect("clone still dispatches"), first);
        drop(copy);
        drop(scale_kernel(&mut cc, &a, 2));
        assert_eq!(live_programs(&cc), PROGRAM_CACHE_CAP as u64);
        assert!(cc.parked.is_empty());
    }

    #[test]
    fn clearing_the_program_cache_spares_live_kernels() {
        let mut cc = ComputeContext::new(8, 8).expect("context");
        let a = cc.upload(&[1.0f32, -2.0, 3.5, 0.25]).expect("a");
        let held = scale_kernel(&mut cc, &a, 3);
        drop(scale_kernel(&mut cc, &a, 4));
        cc.clear_program_cache();
        // The unused program goes at once; the held one waits for its kernel.
        assert_eq!(cc.stats().programs_deleted, 1);
        assert_eq!(cc.run_f32(&held).expect("run"), vec![3.5, -5.5, 11.0, 1.25]);
        drop(held);
        // Rebuilding relinks (the cache was cleared) and sweeps the parked one.
        drop(scale_kernel(&mut cc, &a, 3));
        assert_eq!(cc.stats().programs_linked, 3);
        assert_eq!(cc.stats().programs_deleted, 2);
    }

    #[test]
    fn uncached_programs_are_deleted_with_their_kernel() {
        let mut cc = ComputeContext::new(8, 8).expect("context");
        cc.set_program_cache_enabled(false);
        let a = cc.upload(&[1.0f32, -2.0, 3.5, 0.25]).expect("a");
        for _ in 0..10 {
            let kernel = scale_kernel(&mut cc, &a, 5);
            cc.run_f32(&kernel).expect("run");
        }
        // Each build links; each earlier kernel is gone by the next build.
        assert_eq!(cc.stats().programs_linked, 10);
        assert_eq!(live_programs(&cc), 1);
    }
}
