//! Program objects: shader compilation, linking and uniform storage.

use crate::error::GlError;
use crate::limits::Limits;
use gpes_glsl::{
    compile_after, CheckedPrelude, CompiledShader, Executable, ShaderKind, Type, Value,
};
use std::collections::HashMap;
use std::sync::Arc;

/// A linked pair of vertex + fragment shaders with uniform state.
///
/// Cloning shares the checked shaders and their bytecode through `Arc`
/// handles; only the interface tables and uniform values are copied.
#[derive(Debug, Clone)]
pub struct Program {
    /// The checked vertex shader.
    pub vertex: Arc<CompiledShader>,
    /// The checked fragment shader.
    pub fragment: Arc<CompiledShader>,
    /// The vertex shader lowered to slot-addressed bytecode (done once at
    /// link time).
    vertex_exe: Arc<Executable>,
    /// The fragment shader lowered to bytecode.
    fragment_exe: Arc<Executable>,
    /// Merged uniform interface (name, type) in declaration order.
    uniforms: Vec<(String, Type)>,
    /// Current uniform values (samplers stored as `Value::Sampler`).
    values: HashMap<String, Value>,
    /// Varyings consumed by the fragment shader (name, type), the set that
    /// must be produced by the vertex stage and interpolated.
    linked_varyings: Vec<(String, Type)>,
}

impl Program {
    /// Compiles and links a program from two source strings
    /// (`glCreateProgram` + `glCompileShader` ×2 + `glLinkProgram`).
    ///
    /// # Errors
    ///
    /// * [`GlError::Compile`] for either shader failing to compile,
    /// * [`GlError::Link`] for interface mismatches: fragment varyings not
    ///   written by the vertex shader, type conflicts, too many varying
    ///   vectors, uniform type conflicts between stages.
    pub fn link(vs_source: &str, fs_source: &str, limits: &Limits) -> Result<Program, GlError> {
        Program::link_with(vs_source, fs_source, None, limits, false)
    }

    /// Like [`Program::link`], with an optional GLSL ES Appendix A pass —
    /// what a minimum-profile driver (e.g. VideoCore IV) enforces. A
    /// fragment source that begins with `fs_prelude`'s text is checked
    /// after that prelude ([`gpes_glsl::compile_after`]), with the same
    /// result and errors.
    ///
    /// # Errors
    ///
    /// As [`Program::link`], plus Appendix A violations when `strict`.
    pub fn link_with(
        vs_source: &str,
        fs_source: &str,
        fs_prelude: Option<&Arc<CheckedPrelude>>,
        limits: &Limits,
        strict: bool,
    ) -> Result<Program, GlError> {
        let vertex = compile_after(None, ShaderKind::Vertex, vs_source, strict)?;
        let fragment = compile_after(fs_prelude, ShaderKind::Fragment, fs_source, strict)?;
        Program::link_checked(Arc::new(vertex), Arc::new(fragment), limits)
    }

    /// Links two already-checked shaders (`glLinkProgram` without the
    /// compiles): every interface and limits check of [`Program::link`],
    /// then lowering to bytecode. The program shares `vertex` and
    /// `fragment` rather than copying them, so a shader checked once — at
    /// a serving boundary's admission, say — is the very one that runs.
    ///
    /// # Errors
    ///
    /// [`GlError::Link`] as [`Program::link`]; never [`GlError::Compile`].
    pub fn link_checked(
        vertex: Arc<CompiledShader>,
        fragment: Arc<CompiledShader>,
        limits: &Limits,
    ) -> Result<Program, GlError> {
        let vertex_exe = gpes_glsl::lower_shared(&vertex)?;
        Program::link_lowered(vertex, vertex_exe, fragment, limits)
    }

    /// [`Program::link_checked`] with the vertex stage already lowered
    /// (`vertex_exe` is `vertex`'s bytecode, from
    /// [`gpes_glsl::lower_shared`]), so a caller
    /// linking many fragment shaders against one vertex shader lowers it
    /// once.
    ///
    /// # Errors
    ///
    /// As [`Program::link_checked`].
    pub fn link_lowered(
        vertex: Arc<CompiledShader>,
        vertex_exe: Arc<Executable>,
        fragment: Arc<CompiledShader>,
        limits: &Limits,
    ) -> Result<Program, GlError> {
        if vertex.kind != ShaderKind::Vertex || fragment.kind != ShaderKind::Fragment {
            return Err(GlError::Link {
                message: "link_checked needs a vertex and a fragment shader, in that order"
                    .to_owned(),
            });
        }

        // Every varying the fragment shader declares must be declared by
        // the vertex shader with an identical type.
        let mut linked_varyings = Vec::new();
        for (name, ty) in &fragment.interface.varyings {
            match vertex.interface.varying(name) {
                Some(vt) if vt == ty => linked_varyings.push((name.clone(), ty.clone())),
                Some(vt) => {
                    return Err(GlError::Link {
                        message: format!(
                            "varying `{name}` declared as {vt} in vertex shader but {ty} in fragment shader"
                        ),
                    })
                }
                None => {
                    return Err(GlError::Link {
                        message: format!(
                            "fragment shader consumes varying `{name}` that the vertex shader does not declare"
                        ),
                    })
                }
            }
        }

        // Varying budget (ES 2 guarantees only 8 vec4 vectors). The
        // rasteriser interpolates into fixed-size buffers sized for that
        // guarantee, so a context configured with a larger
        // `max_varying_vectors` is still capped here — at link time,
        // where the error is actionable, rather than at draw time.
        let varying_vectors: usize = linked_varyings
            .iter()
            .map(|(_, t)| varying_vector_cost(t))
            .sum();
        let budget = limits
            .max_varying_vectors
            .min(crate::raster::MAX_VARYING_COMPONENTS / 4);
        if varying_vectors > budget {
            return Err(GlError::Link {
                message: format!("{varying_vectors} varying vectors exceed the limit of {budget}",),
            });
        }

        // Merge uniforms; same-name uniforms must agree on type.
        let mut uniforms: Vec<(String, Type)> = Vec::new();
        for (name, ty) in vertex
            .interface
            .uniforms
            .iter()
            .chain(fragment.interface.uniforms.iter())
        {
            match uniforms.iter().find(|(n, _)| n == name) {
                Some((_, existing)) if existing == ty => {}
                Some((_, existing)) => {
                    return Err(GlError::Link {
                        message: format!(
                            "uniform `{name}` declared as {existing} and {ty} in different stages"
                        ),
                    })
                }
                None => uniforms.push((name.clone(), ty.clone())),
            }
        }

        let samplers = uniforms
            .iter()
            .filter(|(_, t)| *t == Type::Sampler2D)
            .count();
        if samplers > limits.max_texture_units {
            return Err(GlError::Link {
                message: format!(
                    "{samplers} sampler uniforms exceed the {} texture units",
                    limits.max_texture_units
                ),
            });
        }

        if vertex.interface.attributes.len() > limits.max_vertex_attribs {
            return Err(GlError::Link {
                message: format!(
                    "{} attributes exceed the limit of {}",
                    vertex.interface.attributes.len(),
                    limits.max_vertex_attribs
                ),
            });
        }

        // Lower the fragment stage to bytecode once per link — the analog
        // of a driver compiling its internal representation at
        // `glLinkProgram` instead of re-interpreting source per fragment.
        // The handles are `Arc`s so a cloned (or cache-shared) `Program`
        // reuses the same lowered code instead of re-lowering.
        let fragment_exe = gpes_glsl::lower_shared(&fragment)?;

        Ok(Program {
            vertex,
            fragment,
            vertex_exe,
            fragment_exe,
            uniforms,
            values: HashMap::new(),
            linked_varyings,
        })
    }

    /// The vertex stage's bytecode.
    pub fn vertex_executable(&self) -> &Executable {
        &self.vertex_exe
    }

    /// The fragment stage's bytecode.
    pub fn fragment_executable(&self) -> &Executable {
        &self.fragment_exe
    }

    /// A shared handle to the vertex stage's bytecode. Cloning the `Arc`
    /// is how multiple contexts (or threads) run one lowered program.
    pub fn vertex_executable_shared(&self) -> Arc<Executable> {
        Arc::clone(&self.vertex_exe)
    }

    /// A shared handle to the fragment stage's bytecode.
    pub fn fragment_executable_shared(&self) -> Arc<Executable> {
        Arc::clone(&self.fragment_exe)
    }

    /// The merged uniform interface.
    pub fn uniforms(&self) -> &[(String, Type)] {
        &self.uniforms
    }

    /// Varyings interpolated from vertex to fragment stage.
    pub fn varyings(&self) -> &[(String, Type)] {
        &self.linked_varyings
    }

    /// The vertex shader's attribute interface.
    pub fn attributes(&self) -> &[(String, Type)] {
        &self.vertex.interface.attributes
    }

    /// Looks up a uniform's declared type (`glGetUniformLocation` analog;
    /// returns `None` for names that do not exist).
    pub fn uniform_type(&self, name: &str) -> Option<&Type> {
        self.uniforms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, t)| t)
    }

    /// Sets a uniform (`glUniform*`).
    ///
    /// Sampler uniforms are set with `Value::Int(unit)` exactly as in GL
    /// (`glUniform1i`); the value is stored as `Value::Sampler`.
    ///
    /// # Errors
    ///
    /// `InvalidOperation` if the name does not exist or the value type does
    /// not match the declaration.
    pub fn set_uniform(&mut self, name: &str, value: Value) -> Result<(), GlError> {
        let declared = self
            .uniform_type(name)
            .ok_or_else(|| GlError::invalid_op(format!("program has no uniform named `{name}`")))?;
        let stored = match (declared, &value) {
            (Type::Sampler2D, Value::Int(unit)) => {
                if *unit < 0 {
                    return Err(GlError::invalid_value("sampler unit must be non-negative"));
                }
                Value::Sampler(*unit as u32)
            }
            (decl, v) if *decl == v.ty() => value,
            (decl, v) => {
                return Err(GlError::invalid_op(format!(
                    "uniform `{name}` is {decl}, got {}",
                    v.ty()
                )))
            }
        };
        self.values.insert(name.to_owned(), stored);
        Ok(())
    }

    /// Current uniform values.
    pub fn uniform_values(&self) -> &HashMap<String, Value> {
        &self.values
    }

    /// Verifies every declared uniform has been given a value, returning
    /// the missing names otherwise. GL defaults uniforms to zero; GPGPU
    /// bugs from unset samplers are so common that the simulator makes the
    /// default available but lets the context warn.
    pub fn unset_uniforms(&self) -> Vec<&str> {
        self.uniforms
            .iter()
            .filter(|(n, _)| !self.values.contains_key(n))
            .map(|(n, _)| n.as_str())
            .collect()
    }
}

/// Number of 4-component "rows" a varying occupies for the budget check.
fn varying_vector_cost(ty: &Type) -> usize {
    match ty {
        Type::Mat2 => 2,
        Type::Mat3 => 3,
        Type::Mat4 => 4,
        Type::Array(elem, n) => varying_vector_cost(elem) * n,
        _ => 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpes_glsl::compile;

    const VS: &str = "attribute vec2 a_pos;\nvarying vec2 v_uv;\n\
                      void main() { v_uv = a_pos; gl_Position = vec4(a_pos, 0.0, 1.0); }";
    const FS: &str = "precision highp float;\nvarying vec2 v_uv;\nuniform float u_k;\n\
                      void main() { gl_FragColor = vec4(v_uv * u_k, 0.0, 1.0); }";

    #[test]
    fn links_matching_interfaces() {
        let p = Program::link(VS, FS, &Limits::default()).expect("links");
        assert_eq!(p.varyings(), &[("v_uv".to_owned(), Type::Vec2)]);
        assert_eq!(p.attributes().len(), 1);
        assert_eq!(p.uniform_type("u_k"), Some(&Type::Float));
    }

    #[test]
    fn link_lowers_both_stages_to_bytecode() {
        let p = Program::link(VS, FS, &Limits::default()).expect("links");
        assert!(p.vertex_executable().code_len() > 0, "vertex stage lowers");
        assert!(
            p.fragment_executable().code_len() > 0,
            "fragment stage lowers"
        );
    }

    #[test]
    fn link_checked_shares_the_checked_shaders() {
        let vertex = Arc::new(compile(ShaderKind::Vertex, VS).expect("vs"));
        let fragment = Arc::new(compile(ShaderKind::Fragment, FS).expect("fs"));
        let p = Program::link_checked(
            Arc::clone(&vertex),
            Arc::clone(&fragment),
            &Limits::default(),
        )
        .expect("links");
        assert!(Arc::ptr_eq(&p.vertex, &vertex) && Arc::ptr_eq(&p.fragment, &fragment));
        let from_source = Program::link(VS, FS, &Limits::default()).expect("links");
        assert_eq!(p.uniforms(), from_source.uniforms());
        assert_eq!(p.varyings(), from_source.varyings());
        // Swapped stages are a link error, not a mis-run.
        let err = Program::link_checked(fragment, vertex, &Limits::default()).unwrap_err();
        assert!(matches!(err, GlError::Link { .. }));
    }

    #[test]
    fn link_fails_on_missing_varying() {
        let vs = "attribute vec2 a_pos; void main() { gl_Position = vec4(a_pos, 0.0, 1.0); }";
        let err = Program::link(vs, FS, &Limits::default()).unwrap_err();
        assert!(err.to_string().contains("v_uv"));
    }

    #[test]
    fn link_fails_on_varying_type_conflict() {
        let vs = "attribute vec2 a_pos;\nvarying vec3 v_uv;\n\
                  void main() { v_uv = vec3(a_pos, 0.0); gl_Position = vec4(1.0); }";
        let err = Program::link(vs, FS, &Limits::default()).unwrap_err();
        assert!(err.to_string().contains("vec3"));
    }

    #[test]
    fn link_fails_on_uniform_type_conflict() {
        let vs = "uniform vec2 u_k;\nattribute vec2 a_pos;\nvarying vec2 v_uv;\n\
                  void main() { v_uv = u_k; gl_Position = vec4(1.0); }";
        let err = Program::link(vs, FS, &Limits::default()).unwrap_err();
        assert!(err.to_string().contains("u_k"));
    }

    #[test]
    fn varying_budget_enforced() {
        let vs = "attribute vec2 a_pos;\n\
                  varying mat4 v_a; varying mat4 v_b; varying vec4 v_c;\n\
                  void main() { v_a = mat4(1.0); v_b = mat4(1.0); v_c = vec4(1.0);\n\
                                gl_Position = vec4(a_pos, 0.0, 1.0); }";
        let fs = "precision highp float;\n\
                  varying mat4 v_a; varying mat4 v_b; varying vec4 v_c;\n\
                  void main() { gl_FragColor = v_a[0] + v_b[1] + v_c; }";
        let err = Program::link(vs, fs, &Limits::default()).unwrap_err();
        assert!(err.to_string().contains("varying vectors"));
    }

    #[test]
    fn uniform_set_and_type_check() {
        let mut p = Program::link(VS, FS, &Limits::default()).expect("links");
        assert_eq!(p.unset_uniforms(), vec!["u_k"]);
        p.set_uniform("u_k", Value::Float(2.0)).expect("set");
        assert!(p.unset_uniforms().is_empty());
        let err = p.set_uniform("u_k", Value::Int(2)).unwrap_err();
        assert!(err.to_string().contains("is float"));
        let err = p.set_uniform("u_missing", Value::Float(0.0)).unwrap_err();
        assert!(err.to_string().contains("no uniform"));
    }

    #[test]
    fn sampler_uniform_accepts_int_unit() {
        let fs = "precision highp float;\nuniform sampler2D u_tex;\nvarying vec2 v_uv;\n\
                  void main() { gl_FragColor = texture2D(u_tex, v_uv); }";
        let mut p = Program::link(VS, fs, &Limits::default()).expect("links");
        p.set_uniform("u_tex", Value::Int(3)).expect("set sampler");
        assert_eq!(p.uniform_values().get("u_tex"), Some(&Value::Sampler(3)));
        assert!(p.set_uniform("u_tex", Value::Int(-1)).is_err());
    }

    #[test]
    fn compile_errors_surface_with_position() {
        let err = Program::link(
            "void main() { gl_Position = 1 & 2; }",
            FS,
            &Limits::default(),
        )
        .unwrap_err();
        assert!(matches!(err, GlError::Compile(_)));
    }
}
