//! Kernel construction: from a GLSL body to a complete, linked fragment
//! program with codec library, fetch helpers and output packing.

use crate::addressing::{self, ArrayLayout};
use crate::buffer::{GpuArray, GpuMatrix, GpuScalar, GpuTexels};
use crate::codec::ScalarType;
use crate::context::ProgramRef;
use crate::error::ComputeError;
use crate::geometry;
use gpes_gles2::TextureId;
use gpes_glsl::{CheckedPrelude, ShaderKind, Value};
use std::sync::{Arc, OnceLock};

/// How the kernel's output domain is shaped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutputShape {
    /// `len` elements laid out in a near-square texture; the kernel body
    /// addresses them through `idx`.
    Linear(usize),
    /// A `rows × cols` grid; the body addresses it through `row`/`col`.
    Grid {
        /// Number of rows.
        rows: u32,
        /// Number of columns.
        cols: u32,
    },
}

impl OutputShape {
    /// Resolves the shape to a concrete texture layout under a driver's
    /// texture-size limit — the one conversion every dispatch path
    /// (kernel build, bindings, pipeline passes, engine jobs) shares.
    ///
    /// # Errors
    ///
    /// Layout errors when the shape exceeds `max_side`.
    pub fn resolve(self, max_side: u32) -> Result<ArrayLayout, ComputeError> {
        match self {
            OutputShape::Linear(len) => ArrayLayout::for_len(len, max_side),
            OutputShape::Grid { rows, cols } => ArrayLayout::grid(rows, cols, max_side),
        }
    }
}

/// How an input's texels are presented to the kernel body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InputEncoding {
    /// Texels carry one §IV-encoded scalar each; `fetch_<name>(idx)`
    /// decodes it to a `float`.
    Scalar(ScalarType),
    /// Texels are handed to the body as raw `vec4` colours through
    /// `fetch_<name>_texel(idx)` — the escape hatch for kernels that
    /// define their own texel interpretation (packed pairs, complex
    /// numbers, related-work formats).
    RawTexel,
}

/// What the kernel writes per fragment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutputKind {
    /// One §IV-encoded scalar per texel; the body returns `float`.
    Scalar(ScalarType),
    /// The body returns the whole `vec4` colour (already bias-packed);
    /// read back with the `*_texels` methods.
    RawTexel,
}

/// One declared input of a kernel: its name, its encoding and an
/// optional default texture. An input without a default must be bound by
/// every dispatch ([`crate::Bindings`]) or pipeline pass that runs it.
#[derive(Debug, Clone)]
pub(crate) struct KernelInput {
    pub(crate) name: String,
    pub(crate) encoding: InputEncoding,
    pub(crate) default: Option<(TextureId, ArrayLayout)>,
}

/// The error for a kernel input that has no default texture and that a
/// dispatch or pipeline pass leaves unbound.
pub(crate) fn unbound_input(kernel: &str, input: &str) -> ComputeError {
    ComputeError::bad_kernel(format!(
        "input `{input}` of kernel `{kernel}` is unbound: it has no default texture, so \
         each dispatch or pipeline pass must bind it"
    ))
}

/// Finds uniform `name` among a kernel's declarations and, when `value`
/// is given, checks it has the declared GLSL type. Returns the
/// declaration's index. The one check behind default updates, dispatch
/// overrides and pipeline overrides, for kernels and kernel specs alike.
pub(crate) fn check_uniform(
    kernel: &str,
    decls: &[(String, Value)],
    name: &str,
    value: Option<&Value>,
) -> Result<usize, ComputeError> {
    let index = decls.iter().position(|(n, _)| n == name).ok_or_else(|| {
        ComputeError::bad_kernel(format!("kernel `{kernel}` declares no uniform `{name}`"))
    })?;
    let declared = &decls[index].1;
    if let Some(v) = value {
        if std::mem::discriminant(declared) != std::mem::discriminant(v) {
            return Err(ComputeError::bad_kernel(format!(
                "uniform `{name}` of kernel `{kernel}` is {}, bound {}",
                declared.ty(),
                v.ty()
            )));
        }
    }
    Ok(index)
}

/// One input binding of a dispatch ([`crate::Bindings`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InputBinding {
    /// The GLSL-visible name (`fetch_<name>` is generated).
    pub name: String,
    /// Bound texture.
    pub texture: TextureId,
    /// Its layout.
    pub layout: ArrayLayout,
    /// How the texels are decoded.
    pub encoding: InputEncoding,
}

/// Builder for [`Kernel`]s (C-BUILDER).
///
/// ```no_run
/// # use gpes_core::{ComputeContext, Kernel, ScalarType};
/// # fn main() -> Result<(), gpes_core::ComputeError> {
/// # let mut cc = ComputeContext::new(64, 64)?;
/// # let a = cc.upload(&[1.0f32, 2.0])?;
/// # let b = cc.upload(&[3.0f32, 4.0])?;
/// let kernel = Kernel::builder("saxpy")
///     .input("x", &a)
///     .input("y", &b)
///     .uniform_f32("alpha", 2.0)
///     .output(ScalarType::F32, 2)
///     .body("return alpha * fetch_x(idx) + fetch_y(idx);")
///     .build(&mut cc)?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct KernelBuilder {
    name: String,
    inputs: Vec<KernelInput>,
    uniforms: Vec<(String, Value)>,
    output: Option<(OutputKind, OutputShape)>,
    body: Option<String>,
    functions: String,
}

impl KernelBuilder {
    /// Starts a kernel named `name` (names appear in the pass log).
    pub fn new(name: impl Into<String>) -> KernelBuilder {
        KernelBuilder {
            name: name.into(),
            inputs: Vec::new(),
            uniforms: Vec::new(),
            output: None,
            body: None,
            functions: String::new(),
        }
    }

    fn push_input(
        mut self,
        name: &str,
        encoding: InputEncoding,
        default: Option<(TextureId, ArrayLayout)>,
    ) -> Self {
        self.inputs.push(KernelInput {
            name: name.to_owned(),
            encoding,
            default,
        });
        self
    }

    /// Binds an array input; the body reads it with `fetch_<name>(j)`
    /// (and `fetch_<name>_rc(row, col)`).
    pub fn input<T: GpuScalar>(self, name: &str, array: &GpuArray<T>) -> Self {
        let default = Some((array.texture, array.layout));
        self.push_input(name, InputEncoding::Scalar(T::SCALAR), default)
    }

    /// Binds a matrix input; the body reads it with
    /// `fetch_<name>_rc(row, col)`.
    pub fn input_matrix<T: GpuScalar>(self, name: &str, matrix: &GpuMatrix<T>) -> Self {
        let default = Some((matrix.texture, matrix.layout));
        self.push_input(name, InputEncoding::Scalar(T::SCALAR), default)
    }

    /// Binds a runtime-tagged array input; the generated fetch decodes
    /// through the codec named by the array's scalar tag, exactly as
    /// [`KernelBuilder::input`] does for the static type.
    pub fn input_any(self, name: &str, array: &crate::buffer::AnyGpuArray) -> Self {
        let default = Some((array.texture(), array.layout()));
        self.push_input(name, InputEncoding::Scalar(array.scalar()), default)
    }

    /// Declares a `scalar` input with no default texture. The generated
    /// program is the one [`KernelBuilder::input`] makes for that type;
    /// every dispatch must bind the input ([`crate::Bindings::input`]) and
    /// every pipeline pass must read it, or the run fails with
    /// [`ComputeError::BadKernel`].
    pub fn input_declared(self, name: &str, scalar: ScalarType) -> Self {
        self.push_input(name, InputEncoding::Scalar(scalar), None)
    }

    /// Binds an untyped texel buffer; the body reads raw colours with
    /// `fetch_<name>_texel(j)` (and `fetch_<name>_texel_rc(row, col)`).
    pub fn input_texels(self, name: &str, texels: &GpuTexels) -> Self {
        let default = Some((texels.texture, texels.layout));
        self.push_input(name, InputEncoding::RawTexel, default)
    }

    /// Binds a typed array *as raw texels*, exposing
    /// `fetch_<name>_texel(j)` instead of the decoding fetch — useful for
    /// kernels that reinterpret the §IV byte layout themselves.
    pub fn input_raw<T: GpuScalar>(self, name: &str, array: &GpuArray<T>) -> Self {
        let default = Some((array.texture, array.layout));
        self.push_input(name, InputEncoding::RawTexel, default)
    }

    /// Declares a uniform of any supported GLSL type with an initial
    /// value (the typed `uniform_*` conveniences route here).
    pub fn uniform(mut self, name: &str, value: Value) -> Self {
        self.uniforms.push((name.to_owned(), value));
        self
    }

    /// Declares a `uniform float` with an initial value.
    pub fn uniform_f32(mut self, name: &str, value: f32) -> Self {
        self.uniforms.push((name.to_owned(), Value::Float(value)));
        self
    }

    /// Declares a `uniform vec2` with an initial value.
    pub fn uniform_vec2(mut self, name: &str, value: [f32; 2]) -> Self {
        self.uniforms.push((name.to_owned(), Value::Vec2(value)));
        self
    }

    /// Declares a `uniform int` with an initial value.
    pub fn uniform_i32(mut self, name: &str, value: i32) -> Self {
        self.uniforms.push((name.to_owned(), Value::Int(value)));
        self
    }

    /// Declares a `uniform vec3` with an initial value.
    pub fn uniform_vec3(mut self, name: &str, value: [f32; 3]) -> Self {
        self.uniforms.push((name.to_owned(), Value::Vec3(value)));
        self
    }

    /// Declares a `uniform vec4` with an initial value.
    pub fn uniform_vec4(mut self, name: &str, value: [f32; 4]) -> Self {
        self.uniforms.push((name.to_owned(), Value::Vec4(value)));
        self
    }

    /// Declares the output element type and linear length.
    pub fn output(mut self, scalar: ScalarType, len: usize) -> Self {
        self.output = Some((OutputKind::Scalar(scalar), OutputShape::Linear(len)));
        self
    }

    /// Declares a 2-D output grid (e.g. a matrix product result).
    pub fn output_grid(mut self, scalar: ScalarType, rows: u32, cols: u32) -> Self {
        self.output = Some((OutputKind::Scalar(scalar), OutputShape::Grid { rows, cols }));
        self
    }

    /// Declares a raw-texel output of `texel_count` texels: the body is
    /// the contents of `vec4 kernel(float idx, float row, float col)` and
    /// must return the final (bias-packed) colour itself.
    pub fn output_texels(mut self, texel_count: usize) -> Self {
        self.output = Some((OutputKind::RawTexel, OutputShape::Linear(texel_count)));
        self
    }

    /// Declares a raw-texel output shaped as a `rows × cols` grid.
    pub fn output_texels_grid(mut self, rows: u32, cols: u32) -> Self {
        self.output = Some((OutputKind::RawTexel, OutputShape::Grid { rows, cols }));
        self
    }

    /// Supplies the kernel body: the contents of
    /// `float kernel(float idx, float row, float col) { … }` for scalar
    /// outputs, or `vec4 kernel(…)` for raw-texel outputs. It must
    /// `return` the output element value.
    pub fn body(mut self, body: impl Into<String>) -> Self {
        self.body = Some(body.into());
        self
    }

    /// Appends extra GLSL helper functions available to the body.
    pub fn functions(mut self, source: impl Into<String>) -> Self {
        self.functions.push_str(&source.into());
        self.functions.push('\n');
        self
    }

    /// Validates the specification and compiles the program.
    ///
    /// # Errors
    ///
    /// [`ComputeError::BadKernel`] for inconsistent specs (duplicate or
    /// missing pieces) and compile/link errors from the GL layer.
    pub fn build(self, cc: &mut crate::ComputeContext) -> Result<Kernel, ComputeError> {
        let (out_kind, shape) = self
            .output
            .ok_or_else(|| ComputeError::bad_kernel("kernel has no declared output"))?;
        let body = self
            .body
            .clone()
            .ok_or_else(|| ComputeError::bad_kernel("kernel has no body"))?;
        for (i, a) in self.inputs.iter().enumerate() {
            if !is_valid_name(&a.name) {
                return Err(ComputeError::bad_kernel(format!(
                    "input name `{}` is not a valid GLSL identifier",
                    a.name
                )));
            }
            if self.inputs[..i].iter().any(|b| b.name == a.name) {
                return Err(ComputeError::bad_kernel(format!(
                    "duplicate input name `{}`",
                    a.name
                )));
            }
        }
        for (i, (name, _)) in self.uniforms.iter().enumerate() {
            if !is_valid_name(name) {
                return Err(ComputeError::bad_kernel(format!(
                    "uniform name `{name}` is not a valid GLSL identifier"
                )));
            }
            if self.uniforms[..i].iter().any(|(n, _)| n == name) {
                return Err(ComputeError::bad_kernel(format!(
                    "duplicate uniform name `{name}`"
                )));
            }
        }

        let output_layout = shape.resolve(cc.max_texture_side())?;

        let (fragment_source, prelude) = self.generate_fragment_source(cc, out_kind, &body);
        // The program cache makes this free when an identical shader was
        // already linked (same signature + body ⇒ same generated source).
        let program = cc.compile_kernel_program(&fragment_source, prelude)?;
        // Sampler/dims uniform names are dispatch-loop constants; build
        // them once here instead of `format!`-ing per dispatch.
        let input_uniform_names = self
            .inputs
            .iter()
            .map(|b| (format!("u_{}", b.name), format!("u_{}_dims", b.name)))
            .collect();
        Ok(Kernel {
            name: self.name,
            program,
            inputs: self.inputs,
            input_uniform_names,
            uniforms: self.uniforms,
            output_kind: out_kind,
            output_layout,
            fragment_source,
        })
    }

    fn generate_fragment_source(
        &self,
        cc: &crate::ComputeContext,
        out_kind: OutputKind,
        body: &str,
    ) -> (String, &'static Arc<CheckedPrelude>) {
        let inputs: Vec<(&str, InputEncoding)> = self
            .inputs
            .iter()
            .map(|b| (b.name.as_str(), b.encoding))
            .collect();
        generate_fragment_source(
            cc.pack_bias(),
            cc.float_specials(),
            &inputs,
            &self.uniforms,
            &self.functions,
            out_kind,
            body,
        )
    }
}

/// The fragment prelude every generated kernel begins with — the
/// default float precision, the paper §IV codec library for `pack_bias`
/// × `specials`, and `gpes_out_index` — strictly checked once per
/// process, on first use of each of the six variants.
///
/// # Panics
///
/// If the generated prelude fails to check, which no variant does.
pub fn codec_prelude(
    pack_bias: crate::PackBias,
    specials: crate::FloatSpecials,
) -> &'static Arc<CheckedPrelude> {
    static PRELUDES: [OnceLock<Arc<CheckedPrelude>>; 6] = [const { OnceLock::new() }; 6];
    let bias = match pack_bias {
        crate::PackBias::QuarterTexel => 0,
        crate::PackBias::HalfTexel => 1,
        crate::PackBias::PaperDelta => 2,
    };
    let flush = usize::from(specials == crate::FloatSpecials::Flush);
    PRELUDES[2 * bias + flush].get_or_init(|| {
        let mut text = String::from("precision highp float;\n");
        text.push_str(&crate::codec::glsl_codec_library(pack_bias, specials));
        text.push_str(addressing::glsl_out_index());
        let prelude = CheckedPrelude::check(ShaderKind::Fragment, text)
            .unwrap_or_else(|d| panic!("the codec prelude must check: {d}"));
        Arc::new(prelude)
    })
}

/// Generates a kernel's fragment shader from its signature alone — no
/// live context needed — and reports the checked prelude it begins with
/// ([`codec_prelude`]), so only the rest is checked per kernel.
/// [`KernelBuilder::build`] routes through here, and so does the serving
/// registry's admission path, so the source admission validates is
/// byte-identical to the source a worker later compiles.
pub(crate) fn generate_fragment_source(
    pack_bias: crate::PackBias,
    specials: crate::FloatSpecials,
    inputs: &[(&str, InputEncoding)],
    uniforms: &[(String, Value)],
    functions: &str,
    out_kind: OutputKind,
    body: &str,
) -> (String, &'static Arc<CheckedPrelude>) {
    let prelude = codec_prelude(pack_bias, specials);
    let mut src = String::with_capacity(8192);
    src.push_str(prelude.text());
    for (name, encoding) in inputs {
        match encoding {
            InputEncoding::Scalar(scalar) => {
                src.push_str(&addressing::glsl_fetch_1d(
                    name,
                    scalar.unpack_fn(),
                    scalar.fetch_swizzle(),
                ));
                src.push_str(&addressing::glsl_fetch_2d(
                    name,
                    scalar.unpack_fn(),
                    scalar.fetch_swizzle(),
                ));
            }
            InputEncoding::RawTexel => {
                src.push_str(&addressing::glsl_fetch_texel_1d(name));
                src.push_str(&addressing::glsl_fetch_texel_2d(name));
            }
        }
    }
    for (name, value) in uniforms {
        let ty = match value {
            Value::Float(_) => "float",
            Value::Vec2(_) => "vec2",
            Value::Vec3(_) => "vec3",
            Value::Vec4(_) => "vec4",
            Value::Int(_) => "int",
            _ => "float",
        };
        src.push_str(&format!("uniform {ty} {name};\n"));
    }
    src.push_str(functions);
    let pack_expr = match out_kind {
        OutputKind::Scalar(out_scalar) => {
            src.push_str(&format!(
                "float kernel(float idx, float row, float col) {{\n{body}\n}}\n"
            ));
            let pack = out_scalar.pack_fn();
            if out_scalar.uses_rgba() {
                format!("{pack}(kernel(idx, row, col))")
            } else {
                format!("vec4({pack}(kernel(idx, row, col)))")
            }
        }
        OutputKind::RawTexel => {
            src.push_str(&format!(
                "vec4 kernel(float idx, float row, float col) {{\n{body}\n}}\n"
            ));
            "kernel(idx, row, col)".to_owned()
        }
    };
    src.push_str(&format!(
        "void main() {{\n\
         \x20   float idx = gpes_out_index();\n\
         \x20   float row = floor(gl_FragCoord.y);\n\
         \x20   float col = floor(gl_FragCoord.x);\n\
         \x20   gl_FragColor = {pack_expr};\n\
         }}\n"
    ));
    (src, prelude)
}

pub(crate) fn is_valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .next()
            .map(|c| c.is_ascii_alphabetic() || c == '_')
            .unwrap_or(false)
        && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
        && !name.starts_with("gl_")
        && !name.starts_with("gpes_")
        && !name.starts_with("u_")
}

/// A compiled GPGPU kernel: a linked fragment program plus its
/// *signature* (input names/encodings, declared uniforms, output kind).
///
/// Since the compile/bind split, a `Kernel` is immutable compiled state:
/// the textures captured at build time are only *default bindings*, and
/// an input declared with [`KernelBuilder::input_declared`] has none.
/// Dispatch-time state — which textures feed the inputs, the output
/// shape, uniform values — can be replaced per dispatch with a
/// [`crate::Bindings`] value (see
/// [`crate::ComputeContext::run_to_array_with`]), so rebinding a
/// ping-pong texture never recompiles anything.
#[derive(Debug, Clone)]
pub struct Kernel {
    pub(crate) name: String,
    pub(crate) program: ProgramRef,
    pub(crate) inputs: Vec<KernelInput>,
    /// `("u_<name>", "u_<name>_dims")` per input, precomputed for the
    /// dispatch loop.
    pub(crate) input_uniform_names: Vec<(String, String)>,
    pub(crate) uniforms: Vec<(String, Value)>,
    pub(crate) output_kind: OutputKind,
    pub(crate) output_layout: ArrayLayout,
    pub(crate) fragment_source: String,
}

impl Kernel {
    /// Starts building a kernel named `name`.
    pub fn builder(name: impl Into<String>) -> KernelBuilder {
        KernelBuilder::new(name)
    }

    /// The kernel's name (used in pass logs).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Output kind (scalar codec or raw texels).
    pub fn output_kind(&self) -> OutputKind {
        self.output_kind
    }

    /// Output element type, or `None` for raw-texel kernels.
    pub fn output_scalar(&self) -> Option<ScalarType> {
        match self.output_kind {
            OutputKind::Scalar(s) => Some(s),
            OutputKind::RawTexel => None,
        }
    }

    /// Output layout (texture dimensions + live length).
    pub fn output_layout(&self) -> ArrayLayout {
        self.output_layout
    }

    /// The generated fragment shader source — the artefact a developer
    /// would paste into a GLES2 app on real hardware.
    pub fn fragment_source(&self) -> &str {
        &self.fragment_source
    }

    /// The pass-through vertex shader paired with this kernel.
    pub fn vertex_source(&self) -> String {
        geometry::passthrough_vertex_shader()
    }

    /// Updates a *default* uniform value declared at build time; later
    /// dispatches without a [`crate::Bindings`] override use it. (Since
    /// programs are shared through the context cache, uniform values are
    /// applied at dispatch, not stored in the GL program.)
    ///
    /// # Errors
    ///
    /// [`ComputeError::BadKernel`] for unknown names or a value whose GLSL
    /// type differs from the declaration.
    pub fn set_uniform(&mut self, name: &str, value: Value) -> Result<(), ComputeError> {
        let index = check_uniform(&self.name, &self.uniforms, name, Some(&value))?;
        self.uniforms[index].1 = value;
        Ok(())
    }

    /// The declared input names in texture-unit order.
    pub fn input_names(&self) -> impl Iterator<Item = &str> {
        self.inputs.iter().map(|b| b.name.as_str())
    }

    /// The declared uniforms (name, current default value).
    pub fn uniforms(&self) -> &[(String, Value)] {
        &self.uniforms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_validation() {
        assert!(is_valid_name("a"));
        assert!(is_valid_name("matrix_b2"));
        assert!(is_valid_name("_x"));
        assert!(!is_valid_name(""));
        assert!(!is_valid_name("2x"));
        assert!(!is_valid_name("a-b"));
        assert!(!is_valid_name("gl_thing"));
        assert!(!is_valid_name("gpes_secret"));
        assert!(!is_valid_name("u_reserved"));
    }

    #[test]
    fn builder_requires_output_and_body() {
        let mut cc = crate::ComputeContext::new(16, 16).expect("context");
        let err = KernelBuilder::new("k").body("return 0.0;").build(&mut cc);
        assert!(matches!(err, Err(ComputeError::BadKernel { .. })));
        let err = KernelBuilder::new("k")
            .output(ScalarType::F32, 4)
            .build(&mut cc);
        assert!(matches!(err, Err(ComputeError::BadKernel { .. })));
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut cc = crate::ComputeContext::new(16, 16).expect("context");
        let a = cc.upload(&[1.0f32]).expect("upload");
        let err = KernelBuilder::new("k")
            .input("a", &a)
            .input("a", &a)
            .output(ScalarType::F32, 1)
            .body("return fetch_a(idx);")
            .build(&mut cc);
        assert!(matches!(err, Err(ComputeError::BadKernel { .. })));
    }

    #[test]
    fn generated_source_is_inspectable() {
        let mut cc = crate::ComputeContext::new(16, 16).expect("context");
        let a = cc.upload(&[1.0f32, 2.0]).expect("upload");
        let k = Kernel::builder("double")
            .input("a", &a)
            .output(ScalarType::F32, 2)
            .body("return fetch_a(idx) * 2.0;")
            .build(&mut cc)
            .expect("build");
        let src = k.fragment_source();
        assert!(src.contains("gpes_unpack_float"));
        assert!(src.contains("fetch_a"));
        assert!(src.contains("gpes_pack_float"));
        assert!(k.vertex_source().contains("gl_Position"));
        assert_eq!(k.name(), "double");
        assert_eq!(k.output_scalar(), Some(ScalarType::F32));
        assert_eq!(k.output_kind(), OutputKind::Scalar(ScalarType::F32));
    }

    #[test]
    fn raw_texel_kernel_source_shape() {
        let mut cc = crate::ComputeContext::new(16, 16).expect("context");
        let t = cc
            .upload_texels(2, 1, &[1, 2, 3, 4, 5, 6, 7, 8])
            .expect("texels");
        let k = Kernel::builder("swap_halves")
            .input_texels("t", &t)
            .output_texels(2)
            .body("vec4 v = fetch_t_texel(idx); return v.zwxy;")
            .build(&mut cc)
            .expect("build");
        assert!(k.fragment_source().contains("vec4 kernel(float idx"));
        assert!(k.fragment_source().contains("fetch_t_texel"));
        assert_eq!(k.output_scalar(), None);
        assert_eq!(k.output_kind(), OutputKind::RawTexel);
    }

    #[test]
    fn body_compile_errors_are_reported() {
        let mut cc = crate::ComputeContext::new(16, 16).expect("context");
        let err = KernelBuilder::new("broken")
            .output(ScalarType::F32, 1)
            .body("return nonsense_fn(idx);")
            .build(&mut cc);
        assert!(matches!(err, Err(ComputeError::Gl(_))));
    }
}
