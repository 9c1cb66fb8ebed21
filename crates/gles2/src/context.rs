//! The GL context: object tables, bound state, draw calls and readback.

use crate::convert::StoreRounding;
use crate::error::GlError;
use crate::faults::{FaultOutcome, FaultPlan, FaultSite};
use crate::framebuffer::{DefaultFramebuffer, Framebuffer};
use crate::handles::{FramebufferId, ProgramId, TextureId};
use crate::limits::{shader_precision_format, Extensions, Limits, PrecisionFormat};
use crate::program::Program;
use crate::raster::{
    self, AttribArray, Bindings, Dispatch, DrawStats, ExecMode, PrimitiveMode, RasterConfig,
    TargetImage,
};
use crate::texture::{Filter, TexFormat, Texture, Wrap};
use gpes_glsl::exec::{ExecLimits, FloatModel};
use gpes_glsl::{CheckedPrelude, Precision, ShaderKind, Value};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::sync::Arc;

/// A software OpenGL ES 2.0 context.
///
/// One context owns all objects (textures, programs, framebuffers), the
/// default framebuffer and the bound state, mirroring a real EGL context +
/// surface.
///
/// # Example
///
/// ```
/// use gpes_gles2::{Context, PrimitiveMode};
///
/// # fn main() -> Result<(), gpes_gles2::GlError> {
/// let mut gl = Context::new(4, 4)?;
/// let prog = gl.create_program(
///     "attribute vec2 a_pos;
///      void main() { gl_Position = vec4(a_pos, 0.0, 1.0); }",
///     "precision highp float;
///      void main() { gl_FragColor = vec4(1.0, 0.0, 0.0, 1.0); }",
/// )?;
/// gl.use_program(prog)?;
/// gl.set_attribute("a_pos", 2, &[-1.0, -1.0, 3.0, -1.0, -1.0, 3.0])?;
/// gl.draw_arrays(PrimitiveMode::Triangles, 0, 3)?;
/// let pixels = gl.read_pixels(0, 0, 4, 4)?;
/// assert_eq!(&pixels[..4], &[255, 0, 0, 255]);
/// # Ok(())
/// # }
/// ```
pub struct Context {
    textures: Vec<Option<Texture>>,
    programs: Vec<Option<Program>>,
    /// Deleted program slots, reused before the table grows, so a
    /// context that creates and deletes programs forever stays bounded.
    free_programs: Vec<u32>,
    framebuffers: Vec<Option<Framebuffer>>,
    default_fb: DefaultFramebuffer,
    bound_fb: Option<FramebufferId>,
    current_program: Option<ProgramId>,
    texture_units: Vec<Option<TextureId>>,
    attributes: HashMap<String, AttribArray>,
    viewport: (i32, i32, i32, i32),
    scissor: Option<(i32, i32, i32, i32)>,
    clear_color: [f32; 4],
    depth_test: bool,
    store_rounding: StoreRounding,
    float_model: FloatModel,
    dispatch: Dispatch,
    exec_limits: ExecLimits,
    exec_mode: ExecMode,
    limits: Limits,
    extensions: Extensions,
    strict_shaders: bool,
    last_stats: DrawStats,
    // Fault injection lives behind interior mutability because the read
    // path (`read_pixels`, completeness checks) takes `&self`.
    faults: RefCell<Option<FaultPlan>>,
    lost: Cell<bool>,
}

impl Context {
    /// Creates a context with a default framebuffer of the given size
    /// (the EGL window surface).
    ///
    /// # Errors
    ///
    /// `InvalidValue` if either dimension is zero or exceeds the maximum
    /// renderbuffer size.
    pub fn new(width: u32, height: u32) -> Result<Context, GlError> {
        Context::new_with_limits(width, height, Limits::default())
    }

    /// Creates a context with explicit implementation limits — useful to
    /// simulate a more constrained device (smaller `GL_MAX_TEXTURE_SIZE`,
    /// fewer texture units) than the VideoCore IV defaults.
    ///
    /// # Errors
    ///
    /// `InvalidValue` if either dimension is zero or exceeds
    /// `limits.max_texture_size`.
    pub fn new_with_limits(width: u32, height: u32, limits: Limits) -> Result<Context, GlError> {
        if width == 0
            || height == 0
            || width > limits.max_texture_size
            || height > limits.max_texture_size
        {
            return Err(GlError::invalid_value(format!(
                "default framebuffer size {width}x{height} out of range"
            )));
        }
        Ok(Context {
            textures: Vec::new(),
            programs: Vec::new(),
            free_programs: Vec::new(),
            framebuffers: Vec::new(),
            default_fb: DefaultFramebuffer::new(width, height),
            bound_fb: None,
            current_program: None,
            texture_units: vec![None; limits.max_texture_units],
            attributes: HashMap::new(),
            viewport: (0, 0, width as i32, height as i32),
            scissor: None,
            clear_color: [0.0, 0.0, 0.0, 0.0],
            depth_test: false,
            store_rounding: StoreRounding::default(),
            float_model: FloatModel::default(),
            // The CI dispatch matrix pins rasteriser threading through the
            // environment so every test binary runs both serial and
            // banded-parallel without per-test plumbing.
            dispatch: Dispatch::from_env().unwrap_or_default(),
            exec_limits: ExecLimits::default(),
            // `GPES_EXECUTOR` mirrors `GPES_DISPATCH`: the CI matrix pins
            // the executor without per-test plumbing.
            exec_mode: ExecMode::from_env().unwrap_or_default(),
            limits,
            extensions: Extensions::default(),
            strict_shaders: false,
            last_stats: DrawStats::default(),
            faults: RefCell::new(None),
            lost: Cell::new(false),
        })
    }

    // ---- configuration -----------------------------------------------------

    /// Implementation limits (`glGetIntegerv`).
    pub fn limits(&self) -> &Limits {
        &self.limits
    }

    /// Enabled driver extensions (all off by default — core ES 2.0).
    pub fn extensions(&self) -> &Extensions {
        &self.extensions
    }

    /// Advertised extension strings (`glGetString(GL_EXTENSIONS)`).
    pub fn extension_strings(&self) -> Vec<&'static str> {
        self.extensions.strings()
    }

    /// Simulates a driver that ships the named extension (§II.5–6: "some
    /// vendors provide extensions for half floats"). Known names:
    /// `"GL_OES_texture_half_float"` and
    /// `"GL_EXT_color_buffer_half_float"`.
    ///
    /// # Errors
    ///
    /// `InvalidEnum` for names this simulator does not model.
    pub fn enable_extension(&mut self, name: &str) -> Result<(), GlError> {
        match name {
            "GL_OES_texture_half_float" => {
                self.extensions.oes_texture_half_float = true;
                Ok(())
            }
            "GL_EXT_color_buffer_half_float" => {
                // Rendering half floats implies being able to create the
                // texture in the first place.
                self.extensions.oes_texture_half_float = true;
                self.extensions.ext_color_buffer_half_float = true;
                Ok(())
            }
            other => Err(GlError::invalid_enum(format!(
                "unknown extension `{other}`"
            ))),
        }
    }

    /// `glGetShaderPrecisionFormat` — the call the paper uses in §IV-E.
    pub fn shader_precision_format(
        &self,
        kind: ShaderKind,
        precision: Precision,
    ) -> PrecisionFormat {
        shader_precision_format(kind, precision)
    }

    /// Selects how the framebuffer rounds float outputs to bytes (eq. (2)).
    pub fn set_store_rounding(&mut self, rounding: StoreRounding) {
        self.store_rounding = rounding;
    }

    /// Selects the floating-point model the simulated GPU executes with.
    pub fn set_float_model(&mut self, model: FloatModel) {
        self.float_model = model;
    }

    /// Current floating-point model.
    pub fn float_model(&self) -> FloatModel {
        self.float_model
    }

    /// Selects serial or parallel fragment dispatch.
    pub fn set_dispatch(&mut self, dispatch: Dispatch) {
        self.dispatch = dispatch;
    }

    /// Selects the shader execution mode (SPMD lane VM by default; the
    /// tree-walking interpreter remains available as the reference
    /// oracle for differential testing).
    pub fn set_exec_mode(&mut self, mode: ExecMode) {
        self.exec_mode = mode;
    }

    /// The current shader execution mode.
    pub fn exec_mode(&self) -> ExecMode {
        self.exec_mode
    }

    /// Replaces shader execution limits (loop budgets).
    pub fn set_exec_limits(&mut self, limits: ExecLimits) {
        self.exec_limits = limits;
    }

    /// Enables or disables the depth test (disabled by default, as GPGPU
    /// passes do not use it).
    pub fn set_depth_test(&mut self, enabled: bool) {
        self.depth_test = enabled;
    }

    /// Sets the viewport (`glViewport`).
    pub fn viewport(&mut self, x: i32, y: i32, width: i32, height: i32) {
        self.viewport = (x, y, width.max(0), height.max(0));
    }

    /// Sets or clears the scissor rectangle.
    pub fn set_scissor(&mut self, scissor: Option<(i32, i32, i32, i32)>) {
        self.scissor = scissor;
    }

    /// Sets the clear colour (`glClearColor`).
    pub fn set_clear_color(&mut self, rgba: [f32; 4]) {
        self.clear_color = rgba;
    }

    /// Statistics of the most recent draw call.
    pub fn last_draw_stats(&self) -> &DrawStats {
        &self.last_stats
    }

    /// Dimensions of the default framebuffer (the EGL surface size).
    pub fn default_size(&self) -> (u32, u32) {
        (self.default_fb.width(), self.default_fb.height())
    }

    // ---- fault injection ---------------------------------------------------

    /// Installs a deterministic [`FaultPlan`]: from now on the five
    /// injectable [`FaultSite`]s consult the plan, which can fail them
    /// with [`GlError::ResourceExhausted`] or lose the context outright.
    /// Replaces any previously installed plan.
    pub fn install_fault_plan(&mut self, plan: FaultPlan) {
        *self.faults.borrow_mut() = Some(plan);
    }

    /// Removes and returns the installed fault plan **with its advanced
    /// state** (PRNG position, consumed one-shots, injection counters) —
    /// the serving engine moves a worker's plan onto the replacement
    /// context after a rebuild so a one-shot loss cannot fire twice.
    pub fn take_fault_plan(&mut self) -> Option<FaultPlan> {
        self.faults.borrow_mut().take()
    }

    /// Whether this context has been poisoned by a context loss: every
    /// call that can fail now returns [`GlError::ContextLost`].
    pub fn is_lost(&self) -> bool {
        self.lost.get()
    }

    /// Faults the installed plan has injected so far (context losses
    /// included); `0` with no plan installed.
    pub fn faults_injected(&self) -> u64 {
        self.faults.borrow().as_ref().map_or(0, FaultPlan::injected)
    }

    /// One injectable operation: fails fast on a poisoned context, then
    /// asks the plan (if any) whether this operation faults.
    fn fault_check(&self, site: FaultSite) -> Result<(), GlError> {
        self.ensure_live()?;
        let mut guard = self.faults.borrow_mut();
        let Some(plan) = guard.as_mut() else {
            return Ok(());
        };
        match plan.roll(site) {
            FaultOutcome::Pass => Ok(()),
            FaultOutcome::Fault => Err(GlError::ResourceExhausted {
                message: format!("injected fault: {}", site.label()),
            }),
            FaultOutcome::LoseContext => {
                drop(guard);
                self.lost.set(true);
                Err(GlError::ContextLost)
            }
        }
    }

    /// The `EGL_CONTEXT_LOST` poison check for operations that are not
    /// injection sites themselves but must still die on a lost context.
    fn ensure_live(&self) -> Result<(), GlError> {
        if self.lost.get() {
            Err(GlError::ContextLost)
        } else {
            Ok(())
        }
    }

    // ---- textures -----------------------------------------------------------

    /// Creates a texture object (`glGenTextures`).
    pub fn create_texture(&mut self) -> TextureId {
        self.textures.push(Some(Texture::new()));
        TextureId(self.textures.len() as u32 - 1)
    }

    fn texture(&self, id: TextureId) -> Result<&Texture, GlError> {
        self.textures
            .get(id.0 as usize)
            .and_then(|t| t.as_ref())
            .ok_or(GlError::NoSuchObject {
                kind: "texture",
                id: id.0,
            })
    }

    fn texture_mut(&mut self, id: TextureId) -> Result<&mut Texture, GlError> {
        self.textures
            .get_mut(id.0 as usize)
            .and_then(|t| t.as_mut())
            .ok_or(GlError::NoSuchObject {
                kind: "texture",
                id: id.0,
            })
    }

    /// Uploads texel data (`glTexImage2D`). Only byte formats exist —
    /// limitation #5 of the paper is structural.
    ///
    /// # Errors
    ///
    /// Size/format validation errors from the texture object.
    pub fn tex_image_2d(
        &mut self,
        id: TextureId,
        format: TexFormat,
        width: u32,
        height: u32,
        data: &[u8],
    ) -> Result<(), GlError> {
        self.fault_check(FaultSite::TextureUpload)?;
        let max = self.limits.max_texture_size;
        if width > max || height > max {
            return Err(GlError::invalid_value(format!(
                "texture {width}x{height} exceeds GL_MAX_TEXTURE_SIZE {max}"
            )));
        }
        if format.requires_extension() && !self.extensions.oes_texture_half_float {
            return Err(GlError::invalid_enum(format!(
                "format {format:?} requires GL_OES_texture_half_float"
            )));
        }
        self.texture_mut(id)?
            .tex_image_2d(format, width, height, data)
    }

    /// Allocates zeroed texture storage (render target usage).
    ///
    /// # Errors
    ///
    /// Same validation as [`Context::tex_image_2d`].
    pub fn tex_storage(
        &mut self,
        id: TextureId,
        format: TexFormat,
        width: u32,
        height: u32,
    ) -> Result<(), GlError> {
        self.fault_check(FaultSite::TextureAlloc)?;
        if format.requires_extension() && !self.extensions.oes_texture_half_float {
            return Err(GlError::invalid_enum(format!(
                "format {format:?} requires GL_OES_texture_half_float"
            )));
        }
        self.texture_mut(id)?.tex_storage(format, width, height)
    }

    /// Updates a sub-rectangle (`glTexSubImage2D`).
    ///
    /// # Errors
    ///
    /// Bounds/length validation from the texture object.
    pub fn tex_sub_image_2d(
        &mut self,
        id: TextureId,
        x: u32,
        y: u32,
        width: u32,
        height: u32,
        data: &[u8],
    ) -> Result<(), GlError> {
        self.fault_check(FaultSite::TextureUpload)?;
        self.texture_mut(id)?
            .tex_sub_image_2d(x, y, width, height, data)
    }

    /// Sets min/mag filters (`glTexParameteri`).
    ///
    /// # Errors
    ///
    /// `NoSuchObject` for stale handles.
    pub fn set_texture_filter(
        &mut self,
        id: TextureId,
        min: Filter,
        mag: Filter,
    ) -> Result<(), GlError> {
        let t = self.texture_mut(id)?;
        t.min_filter = min;
        t.mag_filter = mag;
        Ok(())
    }

    /// Sets wrap modes (`glTexParameteri`).
    ///
    /// # Errors
    ///
    /// `NoSuchObject` for stale handles.
    pub fn set_texture_wrap(&mut self, id: TextureId, s: Wrap, t: Wrap) -> Result<(), GlError> {
        let tex = self.texture_mut(id)?;
        tex.wrap_s = s;
        tex.wrap_t = t;
        Ok(())
    }

    /// Binds a texture to a unit (`glActiveTexture` + `glBindTexture`).
    ///
    /// # Errors
    ///
    /// `InvalidValue` for units beyond the limit; `NoSuchObject` for stale
    /// handles.
    pub fn bind_texture(&mut self, unit: u32, id: TextureId) -> Result<(), GlError> {
        if unit as usize >= self.texture_units.len() {
            return Err(GlError::invalid_value(format!(
                "texture unit {unit} exceeds the {} available units",
                self.texture_units.len()
            )));
        }
        self.texture(id)?; // validate
        self.texture_units[unit as usize] = Some(id);
        Ok(())
    }

    /// Unbinds whatever texture is bound to a unit.
    pub fn unbind_texture(&mut self, unit: u32) {
        if let Some(slot) = self.texture_units.get_mut(unit as usize) {
            *slot = None;
        }
    }

    /// Texture metadata (width, height, format) for inspection.
    ///
    /// # Errors
    ///
    /// `NoSuchObject` for stale handles.
    pub fn texture_info(&self, id: TextureId) -> Result<(TexFormat, u32, u32), GlError> {
        let t = self.texture(id)?;
        Ok((t.format(), t.width(), t.height()))
    }

    /// Deletes a texture object.
    pub fn delete_texture(&mut self, id: TextureId) {
        if let Some(slot) = self.textures.get_mut(id.0 as usize) {
            *slot = None;
        }
        for unit in self.texture_units.iter_mut() {
            if *unit == Some(id) {
                *unit = None;
            }
        }
    }

    /// Direct texel access **for tests and debugging only** — real ES 2 has
    /// no `glGetTexImage`; production code must read results through a
    /// framebuffer (the paper's limitation #7).
    ///
    /// # Errors
    ///
    /// `NoSuchObject` for stale handles.
    pub fn debug_texture_data(&self, id: TextureId) -> Result<&[u8], GlError> {
        Ok(self.texture(id)?.data())
    }

    // ---- programs -----------------------------------------------------------

    /// Compiles and links a program (`glCreateProgram` et al.).
    ///
    /// # Errors
    ///
    /// Compile or link diagnostics.
    pub fn create_program(&mut self, vs: &str, fs: &str) -> Result<ProgramId, GlError> {
        self.create_program_after(None, vs, fs)
    }

    /// [`Context::create_program`], checking a fragment source that
    /// begins with `fs_prelude`'s text after that prelude
    /// ([`Program::link_with`]).
    ///
    /// # Errors
    ///
    /// As [`Context::create_program`].
    pub fn create_program_after(
        &mut self,
        fs_prelude: Option<&Arc<CheckedPrelude>>,
        vs: &str,
        fs: &str,
    ) -> Result<ProgramId, GlError> {
        self.fault_check(FaultSite::ProgramLink)?;
        let program = Program::link_with(vs, fs, fs_prelude, &self.limits, self.strict_shaders)?;
        Ok(self.install_program(program))
    }

    /// Adopts an already-linked [`Program`] into this context's object
    /// table without compiling or linking anything — the mechanism behind
    /// cross-context program sharing: a process-wide cache links each
    /// generated source once, and every worker context installs a clone.
    /// The clone shares the checked shaders and their lowered bytecode
    /// through `Arc` handles; it copies only the interface tables and the
    /// per-context uniform values.
    ///
    /// The caller is responsible for having linked the program under
    /// limits compatible with this context (worker pools share one
    /// [`Limits`] value, so this holds by construction).
    ///
    /// The program takes a deleted program's slot if there is one: as in
    /// GL, a deleted program's name may be handed out again.
    pub fn install_program(&mut self, program: Program) -> ProgramId {
        match self.free_programs.pop() {
            Some(slot) => {
                self.programs[slot as usize] = Some(program);
                ProgramId(slot)
            }
            None => {
                self.programs.push(Some(program));
                ProgramId(self.programs.len() as u32 - 1)
            }
        }
    }

    /// Enables the GLSL ES Appendix A validation pass for programs
    /// created afterwards — simulating a minimum-profile driver like the
    /// VideoCore IV's, which rejects `while` loops and non-constant `for`
    /// bounds at compile time.
    pub fn set_strict_shaders(&mut self, strict: bool) {
        self.strict_shaders = strict;
    }

    /// Whether Appendix A validation is on.
    pub fn strict_shaders(&self) -> bool {
        self.strict_shaders
    }

    fn program(&self, id: ProgramId) -> Result<&Program, GlError> {
        self.programs
            .get(id.0 as usize)
            .and_then(|p| p.as_ref())
            .ok_or(GlError::NoSuchObject {
                kind: "program",
                id: id.0,
            })
    }

    /// Makes a program current (`glUseProgram`).
    ///
    /// # Errors
    ///
    /// `NoSuchObject` for stale handles.
    pub fn use_program(&mut self, id: ProgramId) -> Result<(), GlError> {
        self.ensure_live()?;
        self.program(id)?;
        self.current_program = Some(id);
        Ok(())
    }

    /// Sets a uniform on the current program (`glUniform*`).
    ///
    /// # Errors
    ///
    /// `InvalidOperation` with no program bound, unknown names or type
    /// mismatches.
    pub fn set_uniform(&mut self, name: &str, value: Value) -> Result<(), GlError> {
        self.ensure_live()?;
        let id = self
            .current_program
            .ok_or_else(|| GlError::invalid_op("no program is current"))?;
        self.programs
            .get_mut(id.0 as usize)
            .and_then(|p| p.as_mut())
            .ok_or(GlError::NoSuchObject {
                kind: "program",
                id: id.0,
            })?
            .set_uniform(name, value)
    }

    /// Introspects the current program's interface.
    ///
    /// # Errors
    ///
    /// `InvalidOperation` if no program is current.
    pub fn current_program_info(&self) -> Result<&Program, GlError> {
        let id = self
            .current_program
            .ok_or_else(|| GlError::invalid_op("no program is current"))?;
        self.program(id)
    }

    /// Deletes a program object; its slot (and name) is reused by the
    /// next program created or installed.
    pub fn delete_program(&mut self, id: ProgramId) {
        if let Some(slot) = self.programs.get_mut(id.0 as usize) {
            if slot.take().is_some() {
                self.free_programs.push(id.0);
            }
        }
        if self.current_program == Some(id) {
            self.current_program = None;
        }
    }

    // ---- attributes -----------------------------------------------------------

    /// Supplies a client-side attribute array (`glVertexAttribPointer` with
    /// client memory, which ES 2 allows).
    ///
    /// # Errors
    ///
    /// `InvalidValue` for sizes outside 1–4 or ragged data.
    pub fn set_attribute(&mut self, name: &str, size: usize, data: &[f32]) -> Result<(), GlError> {
        if !(1..=4).contains(&size) {
            return Err(GlError::invalid_value("attribute size must be 1..=4"));
        }
        if !data.len().is_multiple_of(size) {
            return Err(GlError::invalid_value(
                "attribute data length is not a multiple of its size",
            ));
        }
        self.attributes.insert(
            name.to_owned(),
            AttribArray {
                size,
                data: data.to_vec(),
            },
        );
        Ok(())
    }

    // ---- framebuffers ----------------------------------------------------------

    /// Creates a framebuffer object (`glGenFramebuffers`).
    pub fn create_framebuffer(&mut self) -> FramebufferId {
        self.framebuffers.push(Some(Framebuffer::new()));
        FramebufferId(self.framebuffers.len() as u32 - 1)
    }

    /// Attaches a texture as `COLOR_ATTACHMENT0` (`glFramebufferTexture2D`)
    /// — the render-to-texture mechanism of workaround #7.
    ///
    /// # Errors
    ///
    /// `NoSuchObject` for stale handles.
    pub fn framebuffer_texture(
        &mut self,
        fb: FramebufferId,
        tex: TextureId,
    ) -> Result<(), GlError> {
        self.ensure_live()?;
        self.texture(tex)?;
        let fbo = self
            .framebuffers
            .get_mut(fb.0 as usize)
            .and_then(|f| f.as_mut())
            .ok_or(GlError::NoSuchObject {
                kind: "framebuffer",
                id: fb.0,
            })?;
        fbo.color_attachment = Some(tex);
        Ok(())
    }

    /// Binds a framebuffer; `None` binds the default framebuffer.
    ///
    /// # Errors
    ///
    /// `NoSuchObject` for stale handles.
    pub fn bind_framebuffer(&mut self, fb: Option<FramebufferId>) -> Result<(), GlError> {
        self.ensure_live()?;
        if let Some(id) = fb {
            self.framebuffers
                .get(id.0 as usize)
                .and_then(|f| f.as_ref())
                .ok_or(GlError::NoSuchObject {
                    kind: "framebuffer",
                    id: id.0,
                })?;
        }
        self.bound_fb = fb;
        Ok(())
    }

    /// `glCheckFramebufferStatus` for the bound framebuffer.
    ///
    /// # Errors
    ///
    /// `InvalidFramebufferOperation` describing incompleteness.
    pub fn check_framebuffer_complete(&self) -> Result<(), GlError> {
        self.fault_check(FaultSite::FramebufferCheck)?;
        match self.bound_fb {
            None => Ok(()),
            Some(id) => {
                let fbo = self
                    .framebuffers
                    .get(id.0 as usize)
                    .and_then(|f| f.as_ref())
                    .ok_or(GlError::NoSuchObject {
                        kind: "framebuffer",
                        id: id.0,
                    })?;
                fbo.check_complete(
                    |tid| {
                        self.texture(tid)
                            .ok()
                            .map(|t| (t.format(), t.width(), t.height()))
                    },
                    self.extensions.ext_color_buffer_half_float,
                )
            }
        }
    }

    /// Dimensions of the currently bound render target.
    ///
    /// # Errors
    ///
    /// Completeness errors for FBOs.
    pub fn target_size(&self) -> Result<(u32, u32), GlError> {
        match self.bound_fb {
            None => Ok((self.default_fb.width(), self.default_fb.height())),
            Some(id) => {
                let fbo = self
                    .framebuffers
                    .get(id.0 as usize)
                    .and_then(|f| f.as_ref())
                    .ok_or(GlError::NoSuchObject {
                        kind: "framebuffer",
                        id: id.0,
                    })?;
                let tex = fbo
                    .color_attachment
                    .ok_or(GlError::InvalidFramebufferOperation {
                        message: "missing color attachment".into(),
                    })?;
                let t = self.texture(tex)?;
                Ok((t.width(), t.height()))
            }
        }
    }

    /// Clears the bound framebuffer's colour (and depth when depth testing
    /// is enabled).
    ///
    /// # Errors
    ///
    /// Completeness errors for FBOs.
    pub fn clear(&mut self) -> Result<(), GlError> {
        self.check_framebuffer_complete()?;
        let rgba = self.clear_color;
        let bytes: Vec<u8> = rgba
            .iter()
            .map(|&c| crate::convert::float_to_texel(c, self.store_rounding))
            .collect();
        match self.bound_fb {
            None => {
                for px in self.default_fb.color_mut().chunks_exact_mut(4) {
                    px.copy_from_slice(&bytes);
                }
                for d in self.default_fb.depth_mut().iter_mut() {
                    *d = 1.0;
                }
            }
            Some(id) => {
                let tex_id = self.framebuffers[id.0 as usize]
                    .as_ref()
                    .expect("validated")
                    .color_attachment
                    .expect("validated");
                let tex = self.texture_mut(tex_id)?;
                match tex.format() {
                    TexFormat::RgbaF16 => {
                        let mut half_bytes = [0u8; 8];
                        for (i, &c) in rgba.iter().enumerate() {
                            let b = crate::half::f32_to_f16_bits(c).to_le_bytes();
                            half_bytes[2 * i] = b[0];
                            half_bytes[2 * i + 1] = b[1];
                        }
                        for px in tex.data_mut().chunks_exact_mut(8) {
                            px.copy_from_slice(&half_bytes);
                        }
                    }
                    _ => {
                        for px in tex.data_mut().chunks_exact_mut(4) {
                            px.copy_from_slice(&bytes);
                        }
                    }
                }
            }
        }
        Ok(())
    }

    // ---- drawing -----------------------------------------------------------

    /// Issues a draw call (`glDrawArrays`).
    ///
    /// # Errors
    ///
    /// * `InvalidOperation` — no current program, missing attribute arrays,
    ///   or a sampler feedback loop (a texture simultaneously bound for
    ///   sampling and attached to the bound framebuffer).
    /// * `InvalidFramebufferOperation` — incomplete bound FBO.
    /// * `ShaderTrap` — a shader exceeded its execution limits.
    pub fn draw_arrays(
        &mut self,
        mode: PrimitiveMode,
        first: usize,
        count: usize,
    ) -> Result<DrawStats, GlError> {
        self.check_framebuffer_complete()?;
        let program_id = self
            .current_program
            .ok_or_else(|| GlError::invalid_op("no program is current"))?;

        // Feedback-loop detection: sampling the render target is undefined
        // in GL; the simulator makes it a hard error.
        let attachment: Option<TextureId> = match self.bound_fb {
            None => None,
            Some(id) => self.framebuffers[id.0 as usize]
                .as_ref()
                .and_then(|f| f.color_attachment),
        };
        if let Some(att) = attachment {
            if self.texture_units.iter().flatten().any(|&t| t == att) {
                return Err(GlError::invalid_op(
                    "feedback loop: render-target texture is also bound for sampling",
                ));
            }
        }

        // Move the program (and, for render-to-texture, the attachment's
        // storage) out of the object tables so the remaining borrows of
        // `self`'s fields are disjoint during rasterisation.
        let program = self.programs[program_id.0 as usize]
            .take()
            .expect("validated current program");
        let mut taken_texture: Option<(TextureId, Texture)> = attachment.map(|att_id| {
            let tex = self.textures[att_id.0 as usize]
                .take()
                .expect("attachment validated");
            (att_id, tex)
        });

        let config = RasterConfig {
            viewport: self.viewport,
            scissor: self.scissor,
            store_rounding: self.store_rounding,
            float_model: self.float_model,
            dispatch: self.dispatch,
            exec_mode: self.exec_mode,
            depth_test: self.depth_test && self.bound_fb.is_none(),
            exec_limits: self.exec_limits,
        };
        let bindings = Bindings {
            units: self
                .texture_units
                .iter()
                .map(|slot| {
                    slot.and_then(|id| self.textures.get(id.0 as usize).and_then(|t| t.as_ref()))
                })
                .collect(),
        };
        let result = match &mut taken_texture {
            None => {
                let width = self.default_fb.width();
                let height = self.default_fb.height();
                draw_into_default(
                    &mut self.default_fb,
                    width,
                    height,
                    &program,
                    &self.attributes,
                    mode,
                    first,
                    count,
                    &bindings,
                    &config,
                )
            }
            Some((_, tex)) => {
                let width = tex.width();
                let height = tex.height();
                let pixel = match tex.format() {
                    TexFormat::RgbaF16 => raster::PixelStore::RgbaF16,
                    _ => raster::PixelStore::Rgba8,
                };
                let mut target = TargetImage {
                    width,
                    height,
                    color: tex.data_mut().as_mut_slice(),
                    depth: None,
                    pixel,
                };
                raster::draw(
                    &program,
                    &self.attributes,
                    mode,
                    first,
                    count,
                    &bindings,
                    &mut target,
                    &config,
                )
            }
        };
        drop(bindings);
        if let Some((id, tex)) = taken_texture {
            self.textures[id.0 as usize] = Some(tex);
        }
        self.programs[program_id.0 as usize] = Some(program);
        let stats = result?;
        self.last_stats = stats;
        Ok(stats)
    }

    /// Reads RGBA8 pixels from the bound framebuffer (`glReadPixels`).
    /// Row 0 of the result is the bottom row, as in GL.
    ///
    /// # Errors
    ///
    /// `InvalidValue` for out-of-bounds rectangles; completeness errors for
    /// FBOs.
    pub fn read_pixels(&self, x: u32, y: u32, width: u32, height: u32) -> Result<Vec<u8>, GlError> {
        self.fault_check(FaultSite::Readback)?;
        self.check_framebuffer_complete()?;
        let (tw, th, data): (u32, u32, &[u8]) = match self.bound_fb {
            None => (
                self.default_fb.width(),
                self.default_fb.height(),
                self.default_fb.color(),
            ),
            Some(id) => {
                let tex_id = self.framebuffers[id.0 as usize]
                    .as_ref()
                    .expect("validated")
                    .color_attachment
                    .expect("validated");
                let t = self.texture(tex_id)?;
                if t.format() == TexFormat::RgbaF16 {
                    return Err(GlError::invalid_op(
                        "RGBA/UNSIGNED_BYTE read from a half-float framebuffer; use read_pixels_f16",
                    ));
                }
                (t.width(), t.height(), t.data())
            }
        };
        if x + width > tw || y + height > th {
            return Err(GlError::invalid_value(format!(
                "read rectangle {x},{y} {width}x{height} exceeds target {tw}x{th}"
            )));
        }
        let mut out = Vec::with_capacity(width as usize * height as usize * 4);
        for row in y..y + height {
            let off = (row as usize * tw as usize + x as usize) * 4;
            out.extend_from_slice(&data[off..off + width as usize * 4]);
        }
        Ok(out)
    }

    /// Reads RGBA binary16 pixels from a half-float framebuffer
    /// (`glReadPixels` with `HALF_FLOAT`, part of
    /// `EXT_color_buffer_half_float`). Returns 4 half-floats per pixel as
    /// raw bits, row 0 at the bottom.
    ///
    /// # Errors
    ///
    /// `InvalidOperation` when the bound target is not half-float (or is
    /// the default framebuffer, which is always RGBA8); bounds and
    /// completeness errors as in [`Context::read_pixels`].
    pub fn read_pixels_f16(
        &self,
        x: u32,
        y: u32,
        width: u32,
        height: u32,
    ) -> Result<Vec<u16>, GlError> {
        self.fault_check(FaultSite::Readback)?;
        self.check_framebuffer_complete()?;
        let id = self.bound_fb.ok_or_else(|| {
            GlError::invalid_op("the default framebuffer is RGBA8; bind a half-float FBO")
        })?;
        let tex_id = self.framebuffers[id.0 as usize]
            .as_ref()
            .expect("validated")
            .color_attachment
            .expect("validated");
        let t = self.texture(tex_id)?;
        if t.format() != TexFormat::RgbaF16 {
            return Err(GlError::invalid_op(
                "HALF_FLOAT read from a non-half-float framebuffer",
            ));
        }
        let (tw, th) = (t.width(), t.height());
        if x + width > tw || y + height > th {
            return Err(GlError::invalid_value(format!(
                "read rectangle {x},{y} {width}x{height} exceeds target {tw}x{th}"
            )));
        }
        let data = t.data();
        let mut out = Vec::with_capacity(width as usize * height as usize * 4);
        for row in y..y + height {
            let off = (row as usize * tw as usize + x as usize) * 8;
            for px in data[off..off + width as usize * 8].chunks_exact(2) {
                out.push(u16::from_le_bytes([px[0], px[1]]));
            }
        }
        Ok(out)
    }
}

#[allow(clippy::too_many_arguments)]
fn draw_into_default(
    default_fb: &mut DefaultFramebuffer,
    width: u32,
    height: u32,
    program: &Program,
    attributes: &HashMap<String, AttribArray>,
    mode: PrimitiveMode,
    first: usize,
    count: usize,
    bindings: &Bindings<'_>,
    config: &RasterConfig,
) -> Result<DrawStats, GlError> {
    // Split the default framebuffer into its color and depth planes.
    let fb = default_fb;
    // Safety dance not needed: obtain both &mut via struct methods one at a
    // time is impossible; instead, temporarily move the buffers out.
    let mut color = std::mem::take(fb.color_mut());
    let mut depth = std::mem::take(fb.depth_mut());
    let mut target = TargetImage {
        width,
        height,
        color: color.as_mut_slice(),
        depth: if config.depth_test {
            Some(depth.as_mut_slice())
        } else {
            None
        },
        pixel: raster::PixelStore::Rgba8,
    };
    let result = raster::draw(
        program,
        attributes,
        mode,
        first,
        count,
        bindings,
        &mut target,
        config,
    );
    *fb.color_mut() = color;
    *fb.depth_mut() = depth;
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    const VS_QUAD: &str = "attribute vec2 a_pos;\nvarying vec2 v_uv;\n\
        void main() { v_uv = a_pos * 0.5 + 0.5; gl_Position = vec4(a_pos, 0.0, 1.0); }";

    /// Two triangles covering the full clip space — the paper's
    /// workaround #2 for the missing quad primitive.
    const QUAD: [f32; 12] = [
        -1.0, -1.0, 1.0, -1.0, 1.0, 1.0, // lower-right triangle
        -1.0, -1.0, 1.0, 1.0, -1.0, 1.0, // upper-left triangle
    ];

    fn quad_context(w: u32, h: u32, fs: &str) -> (Context, ProgramId) {
        let mut gl = Context::new(w, h).expect("context");
        let prog = gl.create_program(VS_QUAD, fs).expect("program");
        gl.use_program(prog).expect("use");
        gl.set_attribute("a_pos", 2, &QUAD).expect("attrib");
        (gl, prog)
    }

    #[test]
    fn deleted_program_slots_are_reused() {
        let fs = "precision highp float;\nvoid main() { gl_FragColor = vec4(1.0); }";
        let mut gl = Context::new(4, 4).expect("context");
        let kept = gl.create_program(VS_QUAD, fs).expect("program");
        let template = Program::link(VS_QUAD, fs, &Limits::default()).expect("links");
        for i in 0..100 {
            let id = if i % 2 == 0 {
                gl.create_program(VS_QUAD, fs).expect("program")
            } else {
                gl.install_program(template.clone())
            };
            gl.delete_program(id);
            // A second delete of the same name must not free the slot twice.
            gl.delete_program(id);
        }
        assert_eq!(
            gl.programs.len(),
            2,
            "one live program plus one reused slot"
        );
        gl.use_program(kept)
            .expect("the live program survives the churn");
        let a = gl.create_program(VS_QUAD, fs).expect("program");
        let b = gl.create_program(VS_QUAD, fs).expect("program");
        assert_ne!(a, b);
        assert_eq!(gl.programs.len(), 3);
    }

    #[test]
    fn solid_fill_covers_every_pixel_exactly_once() {
        let (mut gl, _) = quad_context(
            8,
            8,
            "precision highp float;\nvoid main() { gl_FragColor = vec4(1.0, 0.0, 0.5, 1.0); }",
        );
        let stats = gl
            .draw_arrays(PrimitiveMode::Triangles, 0, 6)
            .expect("draw");
        assert_eq!(stats.vertices_shaded, 6);
        assert_eq!(stats.triangles_in, 2);
        assert_eq!(stats.triangles_rasterized, 2);
        // The fill-rule guarantee: exactly one fragment per pixel.
        assert_eq!(stats.fragments_shaded, 64);
        assert_eq!(stats.pixels_written, 64);
        let px = gl.read_pixels(0, 0, 8, 8).expect("read");
        for chunk in px.chunks_exact(4) {
            assert_eq!(chunk, &[255, 0, 127, 255]);
        }
    }

    #[test]
    fn points_scatter_one_pixel_each_with_passthrough_varyings() {
        let mut gl = Context::new(4, 4).expect("context");
        let vs = "attribute vec2 a_pos;\nattribute float a_val;\nvarying float v_val;\n\
                  void main() {\n\
                    v_val = a_val;\n\
                    gl_PointSize = 1.0;\n\
                    gl_Position = vec4(a_pos, 0.0, 1.0);\n\
                  }";
        let fs = "precision highp float;\nvarying float v_val;\n\
                  void main() { gl_FragColor = vec4(v_val, 0.0, 0.0, 1.0); }";
        let prog = gl.create_program(vs, fs).expect("program");
        gl.use_program(prog).expect("use");
        // Four points at the four pixel centres of the diagonal-ish cells.
        // NDC centre of pixel (x, y) on a 4x4 target: ((x+0.5)/2 - 1, …).
        let ndc = |p: f32| (p + 0.5) / 2.0 - 1.0;
        let positions = [
            ndc(0.0),
            ndc(0.0), //
            ndc(3.0),
            ndc(0.0), //
            ndc(1.0),
            ndc(2.0), //
            ndc(2.0),
            ndc(3.0),
        ];
        let values = [0.25f32, 0.5, 0.75, 1.0];
        gl.set_attribute("a_pos", 2, &positions).expect("pos");
        gl.set_attribute("a_val", 1, &values).expect("val");
        let stats = gl.draw_arrays(PrimitiveMode::Points, 0, 4).expect("draw");
        assert_eq!(stats.vertices_shaded, 4);
        assert_eq!(stats.fragments_shaded, 4, "one pixel per unit point");
        assert_eq!(stats.pixels_written, 4);
        let px = gl.read_pixels(0, 0, 4, 4).expect("read");
        let at = |x: usize, y: usize| px[(y * 4 + x) * 4];
        assert_eq!(at(0, 0), 63); // 0.25 → ⌊0.25·255⌋
        assert_eq!(at(3, 0), 127);
        assert_eq!(at(1, 2), 191);
        assert_eq!(at(2, 3), 255);
        // Untouched pixels keep the clear colour.
        assert_eq!(at(1, 0), 0);
        // Point draws accept any count (no multiple-of-3 rule).
        gl.draw_arrays(PrimitiveMode::Points, 0, 1)
            .expect("single point");
    }

    #[test]
    fn large_point_size_covers_a_square() {
        let mut gl = Context::new(4, 4).expect("context");
        let vs = "attribute vec2 a_pos;\n\
                  void main() { gl_PointSize = 2.0; gl_Position = vec4(a_pos, 0.0, 1.0); }";
        let fs = "precision highp float;\nvoid main() { gl_FragColor = vec4(1.0); }";
        let prog = gl.create_program(vs, fs).expect("program");
        gl.use_program(prog).expect("use");
        // Point at the exact centre of the target: covers the middle 2x2.
        gl.set_attribute("a_pos", 2, &[0.0, 0.0]).expect("pos");
        let stats = gl.draw_arrays(PrimitiveMode::Points, 0, 1).expect("draw");
        assert_eq!(stats.pixels_written, 4);
        let px = gl.read_pixels(0, 0, 4, 4).expect("read");
        let at = |x: usize, y: usize| px[(y * 4 + x) * 4];
        for (x, y) in [(1, 1), (1, 2), (2, 1), (2, 2)] {
            assert_eq!(at(x, y), 255, "pixel {x},{y}");
        }
        assert_eq!(at(0, 0), 0);
        assert_eq!(at(3, 3), 0);
    }

    #[test]
    fn strict_driver_rejects_appendix_a_violations() {
        let mut gl = Context::new(4, 4).expect("context");
        let fs_dynamic = "precision highp float;\nuniform float u_n;\n\
             void main() {\n\
               float acc = 0.0;\n\
               for (float i = 0.0; i < u_n; i += 1.0) { acc += 1.0; }\n\
               gl_FragColor = vec4(acc);\n\
             }";
        // The permissive driver takes it…
        gl.create_program(VS_QUAD, fs_dynamic).expect("permissive");
        // …the minimum-profile driver does not.
        gl.set_strict_shaders(true);
        assert!(gl.strict_shaders());
        let err = gl.create_program(VS_QUAD, fs_dynamic).unwrap_err();
        assert!(err.to_string().contains("appendix A"), "{err}");
        // Conformant loops still compile under strict mode.
        let fs_const = "precision highp float;\n\
             void main() {\n\
               float acc = 0.0;\n\
               for (float i = 0.0; i < 8.0; i += 1.0) { acc += 1.0; }\n\
               gl_FragColor = vec4(acc / 255.0);\n\
             }";
        gl.create_program(VS_QUAD, fs_const)
            .expect("strict-conformant");
    }

    #[test]
    fn preprocessor_runs_in_the_driver_compile_path() {
        let (mut gl, _) = quad_context(
            2,
            2,
            "precision highp float;\n\
             #define HALF 0.5\n\
             #ifdef HALF\n\
             void main() { gl_FragColor = vec4(HALF); }\n\
             #else\n\
             void main() { gl_FragColor = vec4(0.0); }\n\
             #endif\n",
        );
        gl.draw_arrays(PrimitiveMode::Triangles, 0, 6)
            .expect("draw");
        let px = gl.read_pixels(0, 0, 2, 2).expect("read");
        assert_eq!(px[0], 127);
    }

    #[test]
    fn half_float_formats_gated_behind_extension() {
        let mut gl = Context::new(4, 4).expect("context");
        let tex = gl.create_texture();
        // Core ES 2: the format does not exist.
        let err = gl.tex_storage(tex, TexFormat::RgbaF16, 2, 2).unwrap_err();
        assert!(matches!(err, GlError::InvalidEnum { .. }));
        assert!(gl.extension_strings().is_empty());
        assert!(gl.enable_extension("GL_IMG_made_up").is_err());
        gl.enable_extension("GL_OES_texture_half_float")
            .expect("enable");
        gl.tex_storage(tex, TexFormat::RgbaF16, 2, 2)
            .expect("now allowed");
        // Texturing is allowed, but rendering still needs the second
        // extension (the paper's portability point: these are separate
        // vendor decisions).
        let fbo = gl.create_framebuffer();
        gl.framebuffer_texture(fbo, tex).expect("attach");
        gl.bind_framebuffer(Some(fbo)).expect("bind");
        let err = gl.check_framebuffer_complete().unwrap_err();
        assert!(err.to_string().contains("not color-renderable"));
        gl.enable_extension("GL_EXT_color_buffer_half_float")
            .expect("enable");
        gl.check_framebuffer_complete().expect("renderable now");
    }

    #[test]
    fn half_float_render_path_is_unclamped_but_10_bit() {
        // A saxpy through RGBA16F end to end: values escape [0,1] (no
        // eq. (2) clamp) but carry only a 10-bit mantissa — the §II.5–6
        // "not enough" half of the argument.
        let (mut gl, prog) = quad_context(
            2,
            2,
            "precision highp float;\nuniform sampler2D u_x;\nvarying vec2 v_uv;\n\
             void main() { gl_FragColor = texture2D(u_x, v_uv) * 3.0 - 1.5; }",
        );
        gl.enable_extension("GL_EXT_color_buffer_half_float")
            .expect("enable");
        // Input texture: four halves per texel; store scalars in .x.
        let xs = [0.1f32, 100.25, -7.0, 1.0 + 2.0f32.powi(-11)];
        let mut data = Vec::new();
        for &v in &xs {
            for c in [v, 0.0, 0.0, 1.0] {
                data.extend_from_slice(&crate::half::f32_to_f16_bits(c).to_le_bytes());
            }
        }
        let src = gl.create_texture();
        gl.tex_image_2d(src, TexFormat::RgbaF16, 2, 2, &data)
            .expect("upload");
        let dst = gl.create_texture();
        gl.tex_storage(dst, TexFormat::RgbaF16, 2, 2)
            .expect("storage");
        let fbo = gl.create_framebuffer();
        gl.framebuffer_texture(fbo, dst).expect("attach");
        gl.bind_framebuffer(Some(fbo)).expect("bind");
        gl.use_program(prog).expect("use");
        gl.bind_texture(0, src).expect("bind tex");
        gl.set_uniform("u_x", Value::Int(0)).expect("sampler");
        gl.viewport(0, 0, 2, 2);
        gl.draw_arrays(PrimitiveMode::Triangles, 0, 6)
            .expect("draw");
        // Byte reads are refused on a float target…
        assert!(gl.read_pixels(0, 0, 2, 2).is_err());
        // …half-float reads work.
        let halves = gl.read_pixels_f16(0, 0, 2, 2).expect("read f16");
        assert_eq!(halves.len(), 16);
        for (i, &x) in xs.iter().enumerate() {
            let got = crate::half::f16_bits_to_f32(halves[i * 4]);
            let want = crate::half::f16_bits_to_f32(crate::half::f32_to_f16_bits(x)) * 3.0 - 1.5;
            let err = (got - want).abs();
            // fp16 tolerance: half an ulp at the result's scale.
            let tol = want.abs().max(1.0) * 2.0f32.powi(-10);
            assert!(err <= tol, "lane {i}: got {got}, want {want}");
            // Values escaped [0,1]: the clamp of eq. (2) did not apply.
        }
        let got1 = crate::half::f16_bits_to_f32(halves[4]);
        assert!(got1 > 1.0, "unclamped store expected, got {got1}");
        // The 2^-11 mantissa bit of lane 3 was lost crossing fp16.
        let got3 = crate::half::f16_bits_to_f32(halves[12]);
        assert_eq!(got3, 1.5, "10-bit mantissa flushes 2^-11 before scaling");
    }

    #[test]
    fn varying_interpolation_matches_pixel_centers() {
        let (mut gl, _) = quad_context(
            4,
            4,
            "precision highp float;\nvarying vec2 v_uv;\n\
             void main() { gl_FragColor = vec4(v_uv, 0.0, 1.0); }",
        );
        gl.draw_arrays(PrimitiveMode::Triangles, 0, 6)
            .expect("draw");
        let px = gl.read_pixels(0, 0, 4, 4).expect("read");
        // Pixel (0,0) centre = (0.5, 0.5)/4 = uv (0.125, 0.125) → byte 31.
        assert_eq!(px[0], 31);
        assert_eq!(px[1], 31);
        // Pixel (3,3) centre uv = 0.875 → byte 223.
        let off = (3 * 4 + 3) * 4;
        assert_eq!(px[off], 223);
        assert_eq!(px[off + 1], 223);
    }

    #[test]
    fn gl_fragcoord_matches_pixel_centers() {
        let (mut gl, _) = quad_context(
            4,
            4,
            "precision highp float;\n\
             void main() { gl_FragColor = vec4(gl_FragCoord.xy / 4.0, 0.0, 1.0); }",
        );
        gl.draw_arrays(PrimitiveMode::Triangles, 0, 6)
            .expect("draw");
        let px = gl.read_pixels(0, 0, 4, 4).expect("read");
        // Pixel (1, 2): fragcoord = (1.5, 2.5)/4 → (0.375, 0.625) → 95, 159.
        let off = (2 * 4 + 1) * 4;
        assert_eq!(px[off], 95);
        assert_eq!(px[off + 1], 159);
    }

    #[test]
    fn texture_sampling_round_trip() {
        let (mut gl, _) = quad_context(
            2,
            2,
            "precision highp float;\nvarying vec2 v_uv;\nuniform sampler2D u_tex;\n\
             void main() { gl_FragColor = texture2D(u_tex, v_uv); }",
        );
        let tex = gl.create_texture();
        let data: Vec<u8> = (0..16).map(|i| (i * 16) as u8).collect();
        gl.tex_image_2d(tex, TexFormat::Rgba8, 2, 2, &data)
            .expect("upload");
        gl.bind_texture(0, tex).expect("bind");
        gl.set_uniform("u_tex", Value::Int(0)).expect("uniform");
        gl.draw_arrays(PrimitiveMode::Triangles, 0, 6)
            .expect("draw");
        let px = gl.read_pixels(0, 0, 2, 2).expect("read");
        // Nearest sampling at pixel centres returns the texel bytes
        // unchanged (c/255 → store ⌊f*255⌋ round-trips exactly).
        assert_eq!(px, data);
    }

    #[test]
    fn render_to_texture_then_sample() {
        let (mut gl, _prog) = quad_context(
            2,
            2,
            "precision highp float;\nvoid main() { gl_FragColor = vec4(0.5, 0.25, 0.75, 1.0); }",
        );
        // Pass 1: render into an FBO-attached texture.
        let target = gl.create_texture();
        gl.tex_storage(target, TexFormat::Rgba8, 2, 2)
            .expect("storage");
        let fbo = gl.create_framebuffer();
        gl.framebuffer_texture(fbo, target).expect("attach");
        gl.bind_framebuffer(Some(fbo)).expect("bind fbo");
        gl.viewport(0, 0, 2, 2);
        gl.draw_arrays(PrimitiveMode::Triangles, 0, 6)
            .expect("draw 1");
        // glReadPixels works on the bound FBO.
        let px = gl.read_pixels(0, 0, 2, 2).expect("read fbo");
        assert_eq!(&px[..4], &[127, 63, 191, 255]);

        // Pass 2: sample that texture into the default framebuffer
        // (workaround #7's copy-shader path).
        let copy = gl
            .create_program(
                VS_QUAD,
                "precision highp float;\nvarying vec2 v_uv;\nuniform sampler2D u_src;\n\
                 void main() { gl_FragColor = texture2D(u_src, v_uv); }",
            )
            .expect("copy program");
        gl.bind_framebuffer(None).expect("default fb");
        gl.use_program(copy).expect("use");
        gl.bind_texture(0, target).expect("bind src");
        gl.set_uniform("u_src", Value::Int(0)).expect("sampler");
        gl.draw_arrays(PrimitiveMode::Triangles, 0, 6)
            .expect("draw 2");
        let px2 = gl.read_pixels(0, 0, 2, 2).expect("read default");
        assert_eq!(px, px2);
    }

    #[test]
    fn feedback_loop_is_rejected() {
        let (mut gl, _) = quad_context(
            2,
            2,
            "precision highp float;\nuniform sampler2D u_tex;\nvarying vec2 v_uv;\n\
             void main() { gl_FragColor = texture2D(u_tex, v_uv); }",
        );
        let tex = gl.create_texture();
        gl.tex_storage(tex, TexFormat::Rgba8, 2, 2)
            .expect("storage");
        let fbo = gl.create_framebuffer();
        gl.framebuffer_texture(fbo, tex).expect("attach");
        gl.bind_framebuffer(Some(fbo)).expect("bind");
        gl.bind_texture(0, tex).expect("bind tex");
        gl.set_uniform("u_tex", Value::Int(0)).expect("uniform");
        let err = gl.draw_arrays(PrimitiveMode::Triangles, 0, 6).unwrap_err();
        assert!(err.to_string().contains("feedback"));
    }

    #[test]
    fn draw_without_program_fails() {
        let mut gl = Context::new(2, 2).expect("context");
        let err = gl.draw_arrays(PrimitiveMode::Triangles, 0, 3).unwrap_err();
        assert!(err.to_string().contains("no program"));
    }

    #[test]
    fn draw_with_missing_attribute_fails() {
        let mut gl = Context::new(2, 2).expect("context");
        let prog = gl
            .create_program(
                VS_QUAD,
                "precision highp float;\nvoid main() { gl_FragColor = vec4(1.0); }",
            )
            .expect("program");
        gl.use_program(prog).expect("use");
        let err = gl.draw_arrays(PrimitiveMode::Triangles, 0, 3).unwrap_err();
        assert!(err.to_string().contains("a_pos"));
    }

    #[test]
    fn incomplete_fbo_blocks_draw_and_read() {
        let (mut gl, _) = quad_context(
            2,
            2,
            "precision highp float;\nvoid main() { gl_FragColor = vec4(1.0); }",
        );
        let fbo = gl.create_framebuffer();
        gl.bind_framebuffer(Some(fbo)).expect("bind");
        assert!(gl.draw_arrays(PrimitiveMode::Triangles, 0, 6).is_err());
        assert!(gl.read_pixels(0, 0, 1, 1).is_err());
    }

    #[test]
    fn scissor_restricts_writes() {
        let (mut gl, _) = quad_context(
            4,
            4,
            "precision highp float;\nvoid main() { gl_FragColor = vec4(1.0); }",
        );
        gl.set_scissor(Some((0, 0, 2, 2)));
        let stats = gl
            .draw_arrays(PrimitiveMode::Triangles, 0, 6)
            .expect("draw");
        assert_eq!(stats.pixels_written, 4);
        gl.set_scissor(None);
        let px = gl.read_pixels(0, 0, 4, 4).expect("read");
        assert_eq!(&px[0..4], &[255, 255, 255, 255]);
        let off = (3 * 4 + 3) * 4;
        assert_eq!(&px[off..off + 4], &[0, 0, 0, 0]);
    }

    #[test]
    fn clear_fills_target() {
        let mut gl = Context::new(2, 2).expect("context");
        gl.set_clear_color([0.5, 0.0, 1.0, 1.0]);
        gl.clear().expect("clear");
        let px = gl.read_pixels(0, 0, 2, 2).expect("read");
        for chunk in px.chunks_exact(4) {
            assert_eq!(chunk, &[127, 0, 255, 255]);
        }
    }

    #[test]
    fn discard_leaves_pixels_untouched() {
        let (mut gl, _) = quad_context(
            4,
            4,
            "precision highp float;\n\
             void main() {\n\
               if (gl_FragCoord.x < 2.0) discard;\n\
               gl_FragColor = vec4(1.0);\n\
             }",
        );
        gl.set_clear_color([0.0, 0.0, 0.0, 0.0]);
        gl.clear().expect("clear");
        let stats = gl
            .draw_arrays(PrimitiveMode::Triangles, 0, 6)
            .expect("draw");
        assert_eq!(stats.fragments_shaded, 16);
        assert_eq!(stats.fragments_discarded, 8);
        assert_eq!(stats.pixels_written, 8);
        let px = gl.read_pixels(0, 0, 4, 4).expect("read");
        assert_eq!(&px[0..4], &[0, 0, 0, 0]); // discarded column
        assert_eq!(&px[8..12], &[255, 255, 255, 255]); // written column
    }

    #[test]
    fn parallel_dispatch_matches_serial() {
        let fs = "precision highp float;\nvarying vec2 v_uv;\n\
                  void main() { gl_FragColor = vec4(fract(v_uv * 13.7), fract(v_uv.x * 3.1), 1.0); }";
        let (mut gl1, _) = quad_context(16, 16, fs);
        gl1.set_dispatch(Dispatch::Serial);
        gl1.draw_arrays(PrimitiveMode::Triangles, 0, 6)
            .expect("draw serial");
        let serial = gl1.read_pixels(0, 0, 16, 16).expect("read");

        let (mut gl2, _) = quad_context(16, 16, fs);
        gl2.set_dispatch(Dispatch::Parallel(4));
        gl2.draw_arrays(PrimitiveMode::Triangles, 0, 6)
            .expect("draw parallel");
        let parallel = gl2.read_pixels(0, 0, 16, 16).expect("read");
        assert_eq!(serial, parallel);
    }

    #[test]
    fn triangle_strip_quad_also_covers_once() {
        let mut gl = Context::new(8, 8).expect("context");
        let prog = gl
            .create_program(
                VS_QUAD,
                "precision highp float;\nvoid main() { gl_FragColor = vec4(1.0); }",
            )
            .expect("program");
        gl.use_program(prog).expect("use");
        gl.set_attribute("a_pos", 2, &[-1.0, -1.0, 1.0, -1.0, -1.0, 1.0, 1.0, 1.0])
            .expect("attrib");
        let stats = gl
            .draw_arrays(PrimitiveMode::TriangleStrip, 0, 4)
            .expect("draw");
        assert_eq!(stats.fragments_shaded, 64);
    }

    #[test]
    fn store_rounding_mode_changes_bytes() {
        let fs = "precision highp float;\nvoid main() { gl_FragColor = vec4(100.9 / 255.0); }";
        let (mut gl, _) = quad_context(1, 1, fs);
        gl.set_store_rounding(StoreRounding::Floor);
        gl.draw_arrays(PrimitiveMode::Triangles, 0, 6)
            .expect("draw");
        assert_eq!(gl.read_pixels(0, 0, 1, 1).expect("read")[0], 100);
        gl.set_store_rounding(StoreRounding::Nearest);
        gl.draw_arrays(PrimitiveMode::Triangles, 0, 6)
            .expect("draw");
        assert_eq!(gl.read_pixels(0, 0, 1, 1).expect("read")[0], 101);
    }

    #[test]
    fn read_pixels_bounds_checked() {
        let gl = Context::new(4, 4).expect("context");
        assert!(gl.read_pixels(0, 0, 5, 1).is_err());
        assert!(gl.read_pixels(3, 3, 1, 1).is_ok());
    }

    #[test]
    fn deleted_texture_handle_is_stale() {
        let mut gl = Context::new(2, 2).expect("context");
        let tex = gl.create_texture();
        gl.delete_texture(tex);
        let err = gl.tex_storage(tex, TexFormat::Rgba8, 2, 2).unwrap_err();
        assert!(matches!(err, GlError::NoSuchObject { .. }));
    }

    #[test]
    fn depth_test_culls_farther_fragments() {
        let mut gl = Context::new(2, 2).expect("context");
        gl.set_depth_test(true);
        let prog = gl
            .create_program(
                "attribute vec3 a_pos;\n\
                 void main() { gl_Position = vec4(a_pos, 1.0); }",
                "precision highp float;\nuniform vec4 u_color;\n\
                 void main() { gl_FragColor = u_color; }",
            )
            .expect("program");
        gl.use_program(prog).expect("use");
        // Near quad (z = 0) in red.
        let near: Vec<f32> = [
            [-1.0, -1.0, 0.0],
            [1.0, -1.0, 0.0],
            [1.0, 1.0, 0.0],
            [-1.0, -1.0, 0.0],
            [1.0, 1.0, 0.0],
            [-1.0, 1.0, 0.0],
        ]
        .concat();
        gl.set_attribute("a_pos", 3, &near).expect("attrib");
        gl.set_uniform("u_color", Value::Vec4([1.0, 0.0, 0.0, 1.0]))
            .expect("uniform");
        gl.draw_arrays(PrimitiveMode::Triangles, 0, 6)
            .expect("draw near");
        // Far quad (z = 0.5) in green must lose the depth test.
        let far: Vec<f32> = near.chunks(3).flat_map(|v| [v[0], v[1], 0.5]).collect();
        gl.set_attribute("a_pos", 3, &far).expect("attrib");
        gl.set_uniform("u_color", Value::Vec4([0.0, 1.0, 0.0, 1.0]))
            .expect("uniform");
        let stats = gl
            .draw_arrays(PrimitiveMode::Triangles, 0, 6)
            .expect("draw far");
        assert_eq!(stats.pixels_written, 0);
        let px = gl.read_pixels(0, 0, 2, 2).expect("read");
        assert_eq!(&px[..4], &[255, 0, 0, 255]);
    }
}
