//! Execution environment: floating-point models, operation profiling,
//! texture access and interpreter limits.
//!
//! The paper (§V) observes that its float transformations are *exact on the
//! CPU* but only accurate to the 15 most significant mantissa bits on the
//! VideoCore IV. The cause is the GPU platform: transcendental functions
//! (`exp2`, `log2`, reciprocal, rsqrt) are produced by a Special Function
//! Unit (SFU) with reduced precision, and the float pack/unpack shaders rely
//! on exactly those functions. [`FloatModel`] lets the interpreter emulate
//! either behaviour so the experiment can be reproduced (experiment E2).

/// How the simulated GPU rounds floating-point results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FloatModel {
    /// IEEE-754 binary32 for everything (a "perfect" GPU; also what the
    /// paper's CPU-side verification uses).
    #[default]
    Exact,
    /// VideoCore IV-like: basic arithmetic (`+ - * /`) is correctly-rounded
    /// fp32, but SFU-produced transcendentals (`exp2`, `log2`, `pow`, `exp`,
    /// `log`, `sqrt`, `inversesqrt`, trigonometry) keep only
    /// [`VC4_SFU_MANTISSA_BITS`] mantissa bits.
    Vc4Sfu,
    /// A pessimistic `mediump`-only device: every operation result is
    /// rounded to a 10-bit mantissa (fp16-like significand, exponent left
    /// untouched). Useful to show why half-float extensions are "not
    /// enough" (§II, limitation 5).
    Mediump16,
}

/// Mantissa bits preserved by the modelled VideoCore IV SFU.
///
/// The QPU SFU produces ~16 good mantissa bits for `exp2`/`log2`
/// (documented in the VideoCore IV 3D architecture guide); two dependent
/// SFU operations land the end-to-end pack→unpack accuracy at ~15 bits,
/// matching the paper's measurement.
pub const VC4_SFU_MANTISSA_BITS: u32 = 16;

/// Relative magnitude of the modelled SFU approximation error (~2⁻¹⁷).
///
/// The SFU is a table-plus-interpolation unit: its results carry a
/// value-dependent relative error even where the mathematical result is
/// exactly representable (e.g. `exp2` of an integer). Pure output
/// truncation would let guard code sidestep the error entirely, which
/// real hardware does not allow — this term is what produces the paper's
/// 15-bit observation (experiment E2).
pub const VC4_SFU_REL_ERROR: f32 = 1.2e-5; // ≈ 2^-16.3

fn sfu_interpolation_noise(bits: u32) -> f32 {
    // Deterministic avalanche hash of the result bits → [-1, 1).
    let mut h = bits ^ 0x9E37_79B9;
    h ^= h >> 16;
    h = h.wrapping_mul(0x85EB_CA6B);
    h ^= h >> 13;
    h = h.wrapping_mul(0xC2B2_AE35);
    h ^= h >> 16;
    let centered = (h as f64 / u32::MAX as f64) * 2.0 - 1.0;
    (centered * VC4_SFU_REL_ERROR as f64) as f32
}

impl FloatModel {
    /// Whether [`FloatModel::round_sfu`] (with `sfu`) or
    /// [`FloatModel::round_alu`] returns every value unchanged, so a
    /// rounding pass can be skipped.
    #[inline]
    pub(crate) fn is_exact(self, sfu: bool) -> bool {
        match self {
            FloatModel::Exact => true,
            FloatModel::Vc4Sfu => !sfu,
            FloatModel::Mediump16 => false,
        }
    }

    /// Rounds a basic-arithmetic result (`+ - * /`).
    #[inline]
    pub fn round_alu(self, v: f32) -> f32 {
        match self {
            FloatModel::Exact | FloatModel::Vc4Sfu => v,
            FloatModel::Mediump16 => round_mantissa(v, 10),
        }
    }

    /// Rounds a transcendental (SFU) result.
    #[inline]
    pub fn round_sfu(self, v: f32) -> f32 {
        match self {
            FloatModel::Exact => v,
            FloatModel::Vc4Sfu => {
                if !v.is_finite() || v == 0.0 {
                    return v;
                }
                let noisy = v * (1.0 + sfu_interpolation_noise(v.to_bits()));
                round_mantissa(noisy, VC4_SFU_MANTISSA_BITS)
            }
            FloatModel::Mediump16 => round_mantissa(v, 10),
        }
    }
}

/// Rounds `v` to `bits` explicit mantissa bits (round-to-nearest-even on
/// the dropped bits). Leaves zeros, infinities and NaNs untouched.
pub fn round_mantissa(v: f32, bits: u32) -> f32 {
    if !v.is_finite() || v == 0.0 || bits >= 23 {
        return v;
    }
    let raw = v.to_bits();
    let drop = 23 - bits;
    let mask: u32 = (1 << drop) - 1;
    let tail = raw & mask;
    let half = 1u32 << (drop - 1);
    let mut kept = raw & !mask;
    // Round-to-nearest-even on the kept LSB.
    if tail > half || (tail == half && (kept >> drop) & 1 == 1) {
        kept = kept.wrapping_add(1 << drop);
    }
    f32::from_bits(kept)
}

/// Counters for work performed by shader invocations.
///
/// The rasteriser accumulates one profile per draw call; `gpes-perf` converts
/// it into VideoCore IV cycle estimates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpProfile {
    /// Basic ALU operations (`+ - * /`, comparisons, component-wise
    /// builtins count one op per component).
    pub alu_ops: u64,
    /// Special-function operations (`exp2`, `log2`, `pow`, trig, …).
    pub sfu_ops: u64,
    /// `texture2D` fetches.
    pub tex_fetches: u64,
    /// Taken branches / loop iterations (control-flow overhead proxy).
    pub branches: u64,
    /// User-defined function calls.
    pub calls: u64,
    /// Shader invocations merged into this profile.
    pub invocations: u64,
}

impl OpProfile {
    /// An empty profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds another profile's counts into this one.
    pub fn merge(&mut self, other: &OpProfile) {
        self.alu_ops += other.alu_ops;
        self.sfu_ops += other.sfu_ops;
        self.tex_fetches += other.tex_fetches;
        self.branches += other.branches;
        self.calls += other.calls;
        self.invocations += other.invocations;
    }

    /// Total of all counted operations (excluding `invocations`).
    pub fn total_ops(&self) -> u64 {
        self.alu_ops + self.sfu_ops + self.tex_fetches + self.branches + self.calls
    }

    /// Mean ALU ops per invocation (0 if nothing ran).
    pub fn alu_per_invocation(&self) -> f64 {
        if self.invocations == 0 {
            0.0
        } else {
            self.alu_ops as f64 / self.invocations as f64
        }
    }
}

/// Source of texels for `texture2D` during shader execution.
///
/// Implemented by the GLES2 simulator's texture-unit bindings. Coordinates
/// are normalised (ES 2 offers nothing else — limitation 4 of §II); the
/// implementation applies wrap modes and filtering and returns RGBA in
/// [0, 1] (eq. (1) of the paper).
pub trait TextureAccess {
    /// Samples texture `unit` at normalised coordinates `coord`.
    fn sample(&self, unit: u32, coord: [f32; 2]) -> [f32; 4];
}

/// A texture source with no bound textures: always samples opaque black,
/// which is what ES 2 mandates for incomplete textures.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoTextures;

impl TextureAccess for NoTextures {
    fn sample(&self, _unit: u32, _coord: [f32; 2]) -> [f32; 4] {
        [0.0, 0.0, 0.0, 1.0]
    }
}

/// Run-time limits of both executors (defence against runaway shaders).
/// Only loops are bounded here: admission fixes everything else about a
/// shader's shape before it runs (call depth at
/// [`crate::sema::MAX_CALL_DEPTH`], spliced size at
/// [`crate::sema::MAX_SPLICED_NODES`]), so an executor traps only on
/// data: a loop past its budget, an index out of range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecLimits {
    /// Maximum iterations for any single loop.
    pub max_loop_iterations: u64,
}

impl Default for ExecLimits {
    fn default() -> Self {
        ExecLimits {
            max_loop_iterations: 16_000_000,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_model_is_identity() {
        let m = FloatModel::Exact;
        for v in [0.0f32, 1.0, -2.5, std::f32::consts::PI, f32::MAX, 1e-30] {
            assert_eq!(m.round_alu(v).to_bits(), v.to_bits());
            assert_eq!(m.round_sfu(v).to_bits(), v.to_bits());
        }
    }

    #[test]
    fn vc4_model_degrades_sfu_only() {
        let m = FloatModel::Vc4Sfu;
        let v = 1.0 + f32::EPSILON; // needs all 23 bits
        assert_eq!(m.round_alu(v), v, "ALU stays exact on VC4");
        // SFU results carry table-interpolation error + 16-bit rounding:
        // the low mantissa bits are gone, the high ones survive.
        let r = m.round_sfu(v);
        assert_ne!(r.to_bits(), v.to_bits());
        assert!((r - 1.0).abs() <= 2.0f32.powi(-15), "{r}");
        // Even exactly-representable results are perturbed (table unit).
        let p = m.round_sfu(1024.0);
        assert!((p / 1024.0 - 1.0).abs() <= 2.0f32.powi(-15));
    }

    #[test]
    fn vc4_sfu_noise_is_deterministic() {
        let m = FloatModel::Vc4Sfu;
        for v in [0.37f32, 123.5, 2.0f32.powi(20), 1.0e-12] {
            assert_eq!(m.round_sfu(v).to_bits(), m.round_sfu(v).to_bits());
            let rel = (m.round_sfu(v) / v - 1.0).abs();
            assert!(rel <= 2.0f32.powi(-15), "{v}: rel error {rel}");
        }
        // Zero and specials pass through.
        assert_eq!(m.round_sfu(0.0), 0.0);
        assert!(m.round_sfu(f32::NAN).is_nan());
        assert_eq!(m.round_sfu(f32::INFINITY), f32::INFINITY);
    }

    #[test]
    fn round_mantissa_keeps_msbs() {
        // 1.5 = 1.1b — representable with 1 mantissa bit.
        assert_eq!(round_mantissa(1.5, 10), 1.5);
        // π needs many bits; rounding to 10 changes it but stays close.
        let pi = std::f32::consts::PI;
        let r = round_mantissa(pi, 10);
        assert_ne!(r, pi);
        assert!((r - pi).abs() / pi < 2.0_f32.powi(-10));
    }

    #[test]
    fn round_mantissa_special_values() {
        assert_eq!(round_mantissa(0.0, 10), 0.0);
        assert!(round_mantissa(f32::NAN, 10).is_nan());
        assert_eq!(round_mantissa(f32::INFINITY, 10), f32::INFINITY);
        assert_eq!(round_mantissa(-0.0, 10).to_bits(), (-0.0f32).to_bits());
    }

    #[test]
    fn round_mantissa_is_round_to_nearest_even() {
        // Value exactly halfway between two 1-bit-mantissa numbers.
        // 1.25 with 1 mantissa bit: candidates 1.0 (even) and 1.5 (odd).
        assert_eq!(round_mantissa(1.25, 1), 1.0);
        // 1.75 halfway between 1.5 and 2.0 → 2.0 (even).
        assert_eq!(round_mantissa(1.75, 1), 2.0);
    }

    #[test]
    fn profile_merge_and_totals() {
        let mut a = OpProfile {
            alu_ops: 10,
            sfu_ops: 2,
            tex_fetches: 3,
            branches: 1,
            calls: 1,
            invocations: 1,
        };
        let b = OpProfile {
            alu_ops: 5,
            invocations: 1,
            ..OpProfile::default()
        };
        a.merge(&b);
        assert_eq!(a.alu_ops, 15);
        assert_eq!(a.invocations, 2);
        assert_eq!(a.total_ops(), 15 + 2 + 3 + 1 + 1);
        assert_eq!(a.alu_per_invocation(), 7.5);
    }

    #[test]
    fn no_textures_returns_opaque_black() {
        assert_eq!(NoTextures.sample(0, [0.5, 0.5]), [0.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    fn mediump_model_rounds_alu() {
        let m = FloatModel::Mediump16;
        let v = 1.0 + f32::EPSILON;
        assert_eq!(m.round_alu(v), 1.0);
    }
}
