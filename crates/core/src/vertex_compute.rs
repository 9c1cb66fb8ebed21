//! Vertex-stage compute (§III-1): "The GPGPU computations can be either
//! implemented in the vertex or the fragment processing stage (or both)."
//!
//! The fragment path ([`crate::Kernel`]) gathers inputs from textures; the
//! vertex path here *scatters*: each work item is one `POINTS` vertex
//! whose attributes carry the inputs, the vertex shader computes the
//! result, and a pass-through **fragment** shader packs it into the
//! item's output pixel — the mirror image of workaround #1's pass-through
//! vertex shader.
//!
//! This arrangement is how ES 2 hardware without vertex texture fetch
//! (Mali-400 famously has none) still runs vertex-stage GPGPU: inputs
//! travel as vertex attributes instead of textures.

use crate::addressing::ArrayLayout;
use crate::buffer::GpuScalar;
use crate::codec::ScalarType;
use crate::context::ProgramRef;
use crate::error::ComputeError;
use crate::ComputeContext;
use gpes_gles2::PrimitiveMode;
use gpes_glsl::Value;

/// Builder for [`VertexKernel`]s.
///
/// ```no_run
/// # use gpes_core::{ComputeContext, ScalarType};
/// # use gpes_core::vertex_compute::VertexKernel;
/// # fn main() -> Result<(), gpes_core::ComputeError> {
/// # let mut cc = ComputeContext::new(64, 64)?;
/// let kernel = VertexKernel::builder("saxpy_v")
///     .input("x", &[1.0, 2.0])
///     .input("y", &[10.0, 20.0])
///     .uniform_f32("alpha", 2.0)
///     .output(ScalarType::F32, 2)
///     .body("return alpha * x + y;")
///     .build(&mut cc)?;
/// assert_eq!(kernel.run_and_read::<f32>(&mut cc)?, vec![12.0, 24.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct VertexKernelBuilder {
    name: String,
    inputs: Vec<(String, Vec<f32>)>,
    uniforms: Vec<(String, Value)>,
    output: Option<(ScalarType, usize)>,
    functions: String,
    body: Option<String>,
}

impl VertexKernelBuilder {
    /// Starts a vertex kernel named `name`.
    pub fn new(name: impl Into<String>) -> VertexKernelBuilder {
        VertexKernelBuilder {
            name: name.into(),
            inputs: Vec::new(),
            uniforms: Vec::new(),
            output: None,
            functions: String::new(),
            body: None,
        }
    }

    /// Adds a per-item input; the body reads it by `name` as a `float`
    /// attribute. Integer data survives exactly within ±2²⁴ (§IV-C).
    pub fn input(mut self, name: &str, data: &[f32]) -> Self {
        self.inputs.push((name.to_owned(), data.to_vec()));
        self
    }

    /// Declares a `uniform float`.
    pub fn uniform_f32(mut self, name: &str, value: f32) -> Self {
        self.uniforms.push((name.to_owned(), Value::Float(value)));
        self
    }

    /// Declares the output element type and length (= work-item count).
    pub fn output(mut self, scalar: ScalarType, len: usize) -> Self {
        self.output = Some((scalar, len));
        self
    }

    /// Appends extra GLSL helper functions available to the body.
    pub fn functions(mut self, source: impl Into<String>) -> Self {
        self.functions.push_str(&source.into());
        self.functions.push('\n');
        self
    }

    /// Supplies the body of `float kernel(float idx)`; inputs are in
    /// scope by name.
    pub fn body(mut self, body: impl Into<String>) -> Self {
        self.body = Some(body.into());
        self
    }

    /// Validates, generates both shaders and links the program.
    ///
    /// # Errors
    ///
    /// [`ComputeError::BadKernel`] for inconsistent specs; GL compile or
    /// link errors.
    pub fn build(self, cc: &mut ComputeContext) -> Result<VertexKernel, ComputeError> {
        let (scalar, len) = self
            .output
            .ok_or_else(|| ComputeError::bad_kernel("vertex kernel has no declared output"))?;
        let body = self
            .body
            .ok_or_else(|| ComputeError::bad_kernel("vertex kernel has no body"))?;
        if len == 0 {
            return Err(ComputeError::bad_kernel("vertex kernel needs work items"));
        }
        for (i, (name, data)) in self.inputs.iter().enumerate() {
            if !is_valid_attr_name(name) {
                return Err(ComputeError::bad_kernel(format!(
                    "input name `{name}` is not a valid GLSL identifier"
                )));
            }
            if self.inputs[..i].iter().any(|(n, _)| n == name) {
                return Err(ComputeError::bad_kernel(format!(
                    "duplicate input `{name}`"
                )));
            }
            if data.len() != len {
                return Err(ComputeError::bad_kernel(format!(
                    "input `{name}` has {} elements, output declares {len}",
                    data.len()
                )));
            }
        }
        let layout = ArrayLayout::for_len(len, cc.max_texture_side())?;

        // ---- vertex shader: the computation ----
        let mut vs = String::with_capacity(2048);
        vs.push_str("attribute vec2 a_gpes_pos;\nattribute float a_gpes_idx;\n");
        for (name, _) in &self.inputs {
            vs.push_str(&format!("attribute float {name};\n"));
        }
        for (name, _) in &self.uniforms {
            vs.push_str(&format!("uniform float {name};\n"));
        }
        vs.push_str("varying float v_gpes_result;\n");
        vs.push_str(&self.functions);
        vs.push_str(&format!("float kernel(float idx) {{\n{body}\n}}\n"));
        vs.push_str(
            "void main() {\n\
             \x20   v_gpes_result = kernel(a_gpes_idx);\n\
             \x20   gl_PointSize = 1.0;\n\
             \x20   gl_Position = vec4(a_gpes_pos, 0.0, 1.0);\n\
             }\n",
        );

        // ---- fragment shader: pass-through + §IV packing ----
        let mut fs = String::with_capacity(2048);
        fs.push_str("precision highp float;\n");
        fs.push_str(&crate::codec::glsl_codec_library(
            cc.pack_bias(),
            cc.float_specials(),
        ));
        fs.push_str("varying float v_gpes_result;\n");
        let pack = scalar.pack_fn();
        let pack_expr = if scalar.uses_rgba() {
            format!("{pack}(v_gpes_result)")
        } else {
            format!("vec4({pack}(v_gpes_result))")
        };
        fs.push_str(&format!("void main() {{ gl_FragColor = {pack_expr}; }}\n"));

        // Shared through the context's program cache: building the same
        // vertex kernel twice links one program. Uniform values are
        // applied at dispatch (they cannot live in a shared program).
        let program = cc.compile_program_cached(&vs, &fs, None)?;

        // Point positions: the NDC centre of each output texel.
        let mut positions = Vec::with_capacity(len * 2);
        let mut indices = Vec::with_capacity(len);
        for i in 0..len {
            let (u, v) = layout.normalized_center(i);
            positions.push(u * 2.0 - 1.0);
            positions.push(v * 2.0 - 1.0);
            indices.push(i as f32);
        }

        Ok(VertexKernel {
            name: self.name,
            program,
            inputs: self.inputs,
            uniforms: self.uniforms,
            positions,
            indices,
            scalar,
            layout,
            vertex_source: vs,
            fragment_source: fs,
        })
    }
}

fn is_valid_attr_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .next()
            .map(|c| c.is_ascii_alphabetic() || c == '_')
            .unwrap_or(false)
        && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
        && !name.starts_with("gl_")
        && !name.starts_with("gpes_")
        && !name.starts_with("a_gpes")
        && !name.starts_with("v_gpes")
        && !name.starts_with("u_")
}

/// A compiled vertex-stage compute kernel: one point per work item.
#[derive(Debug, Clone)]
pub struct VertexKernel {
    name: String,
    program: ProgramRef,
    inputs: Vec<(String, Vec<f32>)>,
    uniforms: Vec<(String, Value)>,
    positions: Vec<f32>,
    indices: Vec<f32>,
    scalar: ScalarType,
    layout: ArrayLayout,
    vertex_source: String,
    fragment_source: String,
}

impl VertexKernel {
    /// Starts building a vertex kernel named `name`.
    pub fn builder(name: impl Into<String>) -> VertexKernelBuilder {
        VertexKernelBuilder::new(name)
    }

    /// The kernel's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Output element type.
    pub fn output_scalar(&self) -> ScalarType {
        self.scalar
    }

    /// The generated vertex shader (the computation lives here).
    pub fn vertex_source(&self) -> &str {
        &self.vertex_source
    }

    /// The generated pass-through fragment shader.
    pub fn fragment_source(&self) -> &str {
        &self.fragment_source
    }

    /// Updates a uniform declared at build time. The value is stored on
    /// the kernel and applied at dispatch — the GL program may be shared
    /// with other kernels through the context cache.
    ///
    /// # Errors
    ///
    /// `BadKernel` for names not declared at build time.
    pub fn set_uniform(&mut self, name: &str, value: f32) -> Result<(), ComputeError> {
        let slot = self
            .uniforms
            .iter_mut()
            .find(|(n, _)| n == name)
            .ok_or_else(|| {
                ComputeError::bad_kernel(format!("vertex kernel declares no uniform `{name}`"))
            })?;
        slot.1 = Value::Float(value);
        Ok(())
    }

    fn dispatch(&self, cc: &mut ComputeContext) -> Result<(), ComputeError> {
        let gl = cc.gl();
        gl.use_program(*self.program)?;
        for (name, value) in &self.uniforms {
            gl.set_uniform(name, value.clone())?;
        }
        gl.set_attribute("a_gpes_pos", 2, &self.positions)?;
        gl.set_attribute("a_gpes_idx", 1, &self.indices)?;
        for (name, data) in &self.inputs {
            gl.set_attribute(name, 1, data)?;
        }
        gl.viewport(0, 0, self.layout.width as i32, self.layout.height as i32);
        let stats = gl.draw_arrays(PrimitiveMode::Points, 0, self.layout.len)?;
        cc.record_pass(&self.name, stats, self.layout.texel_count() as u64);
        Ok(())
    }

    /// Scatters all work items into the default framebuffer and decodes
    /// the result.
    ///
    /// # Errors
    ///
    /// `BadKernel` for an output-type mismatch,
    /// [`ComputeError::TooLarge`] when the output exceeds the screen, and
    /// GL errors during the draw.
    pub fn run_and_read<T: GpuScalar>(
        &self,
        cc: &mut ComputeContext,
    ) -> Result<Vec<T>, ComputeError> {
        if T::SCALAR != self.scalar {
            return Err(ComputeError::bad_kernel(format!(
                "vertex kernel `{}` outputs {}, requested {}",
                self.name,
                self.scalar,
                T::SCALAR
            )));
        }
        let (sw, sh) = cc.screen_size();
        if self.layout.width > sw || self.layout.height > sh {
            return Err(ComputeError::TooLarge {
                what: format!(
                    "vertex kernel output {}x{} vs {}x{} screen",
                    self.layout.width, self.layout.height, sw, sh
                ),
            });
        }
        cc.gl().bind_framebuffer(None)?;
        self.dispatch(cc)?;
        let bytes = cc
            .gl()
            .read_pixels(0, 0, self.layout.width, self.layout.height)?;
        Ok(T::decode_framebuffer(&bytes, self.layout.len))
    }

    /// Scatters all work items into a fresh texture (render-to-texture)
    /// and returns it as a [`crate::GpuArray`], so vertex-stage results
    /// can feed fragment-stage kernels — §III-1's "or both".
    ///
    /// # Errors
    ///
    /// `BadKernel` for an output-type mismatch; GL errors during the
    /// draw.
    pub fn run_to_array<T: GpuScalar>(
        &self,
        cc: &mut ComputeContext,
    ) -> Result<crate::GpuArray<T>, ComputeError> {
        if T::SCALAR != self.scalar {
            return Err(ComputeError::bad_kernel(format!(
                "vertex kernel `{}` outputs {}, requested {}",
                self.name,
                self.scalar,
                T::SCALAR
            )));
        }
        let target = cc.render_to_texture(self.layout, None, |cc, pooled| {
            // The POINTS draw writes only `len` texels, not the full
            // target: a recycled texture must be cleared so padding
            // texels read as deterministic zeros, exactly like a fresh
            // tex_storage target.
            if pooled {
                cc.gl().set_clear_color([0.0, 0.0, 0.0, 0.0]);
                cc.gl().clear()?;
            }
            self.dispatch(cc)
        })?;
        Ok(crate::GpuArray::new(target.into_id(), self.layout))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Kernel;

    #[test]
    fn vertex_saxpy_matches_fragment_saxpy() {
        let mut cc = ComputeContext::new(32, 32).expect("context");
        let x: Vec<f32> = (0..37).map(|i| i as f32 * 0.75 - 8.0).collect();
        let y: Vec<f32> = (0..37).map(|i| 100.0 - i as f32).collect();
        let alpha = 2.5f32;

        // Vertex-stage version (inputs as attributes, compute in VS).
        let vk = VertexKernel::builder("saxpy_v")
            .input("x", &x)
            .input("y", &y)
            .uniform_f32("alpha", alpha)
            .output(ScalarType::F32, x.len())
            .body("return alpha * x + y;")
            .build(&mut cc)
            .expect("vertex kernel");
        let via_vertex: Vec<f32> = vk.run_and_read(&mut cc).expect("run");

        // Fragment-stage version (inputs as textures, compute in FS).
        let gx = cc.upload(&x).expect("x");
        let gy = cc.upload(&y).expect("y");
        let fk = Kernel::builder("saxpy_f")
            .input("x", &gx)
            .input("y", &gy)
            .uniform_f32("alpha", alpha)
            .output(ScalarType::F32, x.len())
            .body("return alpha * fetch_x(idx) + fetch_y(idx);")
            .build(&mut cc)
            .expect("fragment kernel");
        let via_fragment = cc.run_f32(&fk).expect("run");

        assert_eq!(via_vertex, via_fragment, "§III-1: both stages compute");
    }

    #[test]
    fn vertex_kernel_integer_output() {
        let mut cc = ComputeContext::new(16, 16).expect("context");
        let x: Vec<f32> = (0..9).map(|i| i as f32).collect();
        let vk = VertexKernel::builder("square_i")
            .input("x", &x)
            .output(ScalarType::I32, 9)
            .body("return x * x - 4.0;")
            .build(&mut cc)
            .expect("build");
        let out: Vec<i32> = vk.run_and_read(&mut cc).expect("run");
        assert_eq!(out, vec![-4, -3, 0, 5, 12, 21, 32, 45, 60]);
    }

    #[test]
    fn idx_and_uniform_updates_work() {
        let mut cc = ComputeContext::new(16, 16).expect("context");
        let zeros = vec![0.0f32; 5];
        let mut vk = VertexKernel::builder("gain_idx")
            .input("z", &zeros)
            .uniform_f32("gain", 3.0)
            .output(ScalarType::F32, 5)
            .body("return z + idx * gain;")
            .build(&mut cc)
            .expect("build");
        assert_eq!(
            vk.run_and_read::<f32>(&mut cc).expect("run"),
            vec![0.0, 3.0, 6.0, 9.0, 12.0]
        );
        vk.set_uniform("gain", -1.0).expect("set");
        assert_eq!(
            vk.run_and_read::<f32>(&mut cc).expect("run"),
            vec![0.0, -1.0, -2.0, -3.0, -4.0]
        );
    }

    #[test]
    fn validation_errors() {
        let mut cc = ComputeContext::new(16, 16).expect("context");
        // Length mismatch.
        let err = VertexKernel::builder("k")
            .input("x", &[1.0, 2.0])
            .output(ScalarType::F32, 3)
            .body("return x;")
            .build(&mut cc)
            .unwrap_err();
        assert!(err.to_string().contains("3"));
        // Reserved names.
        assert!(VertexKernel::builder("k")
            .input("a_gpes_pos", &[1.0])
            .output(ScalarType::F32, 1)
            .body("return 0.0;")
            .build(&mut cc)
            .is_err());
        // Type mismatch at readback.
        let vk = VertexKernel::builder("k")
            .input("x", &[1.0])
            .output(ScalarType::F32, 1)
            .body("return x;")
            .build(&mut cc)
            .expect("build");
        assert!(vk.run_and_read::<u32>(&mut cc).is_err());
        // Output larger than the screen.
        let big = vec![0.0f32; 40 * 40];
        let vk = VertexKernel::builder("big")
            .input("x", &big)
            .output(ScalarType::F32, big.len())
            .body("return x;")
            .build(&mut cc)
            .expect("build");
        assert!(matches!(
            vk.run_and_read::<f32>(&mut cc),
            Err(ComputeError::TooLarge { .. })
        ));
    }

    #[test]
    fn both_stages_chain_vertex_into_fragment() {
        // §III-1 "(or both)": a vertex-stage kernel produces a texture
        // that a fragment-stage kernel consumes.
        let mut cc = ComputeContext::new(16, 16).expect("context");
        let x: Vec<f32> = (0..30).map(|i| i as f32 - 15.0).collect();
        let vk = VertexKernel::builder("scale_v")
            .input("x", &x)
            .output(ScalarType::F32, x.len())
            .body("return x * 2.0;")
            .build(&mut cc)
            .expect("vertex build");
        let mid: crate::GpuArray<f32> = vk.run_to_array(&mut cc).expect("vertex rtt");
        let fk = Kernel::builder("abs_f")
            .input("m", &mid)
            .output(ScalarType::F32, x.len())
            .body("return abs(fetch_m(idx));")
            .build(&mut cc)
            .expect("fragment build");
        let out = cc.run_f32(&fk).expect("fragment run");
        let expect: Vec<f32> = x.iter().map(|&v| (v * 2.0).abs()).collect();
        assert_eq!(out, expect);
        assert_eq!(cc.pass_log().len(), 2);
    }

    #[test]
    fn pass_log_records_vertex_kernels() {
        let mut cc = ComputeContext::new(16, 16).expect("context");
        let vk = VertexKernel::builder("logged")
            .input("x", &[1.0, 2.0])
            .output(ScalarType::F32, 2)
            .body("return x;")
            .build(&mut cc)
            .expect("build");
        let _: Vec<f32> = vk.run_and_read(&mut cc).expect("run");
        let log = cc.take_pass_log();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].kernel, "logged");
        assert_eq!(log[0].stats.vertices_shaded, 2);
        // The computation ran in the vertex stage: the VS profile carries
        // the arithmetic, the FS profile only the packing.
        assert!(log[0].stats.vs_profile.alu_ops > 0);
    }
}
