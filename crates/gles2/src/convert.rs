//! The two conversions at the heart of the paper's numeric transformations:
//!
//! * eq. (1): texture byte → shader float, `f = c / (2⁸ − 1)`;
//! * eq. (2): shader float → framebuffer byte,
//!   `i = ⌊clamp(f, 0, 1) · (2⁸ − 1)⌋`.
//!
//! The ES 2 specification leaves the store rounding implementation-defined;
//! the paper's δ-correction assumes flooring. [`StoreRounding`] lets both
//! behaviours be simulated (ablation A2).

use gpes_glsl::builtins::floor_f32;

/// How the framebuffer converts a clamped float to a byte (eq. (2)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StoreRounding {
    /// `i = ⌊f · 255⌋` — the behaviour the paper's transformations assume.
    #[default]
    Floor,
    /// `i = ⌊f · 255 + 0.5⌋` — round-to-nearest, used by some drivers.
    Nearest,
}

/// eq. (1): converts a texel byte to the float seen by the shader.
#[inline]
pub fn texel_to_float(c: u8) -> f32 {
    c as f32 / 255.0
}

/// eq. (2): converts a shader output component to a framebuffer byte.
#[inline]
pub fn float_to_texel(f: f32, rounding: StoreRounding) -> u8 {
    // NaN clamps to 0 (GL clamps to [0,1] and NaN comparisons are false).
    let clamped = if f.is_nan() { 0.0 } else { f.clamp(0.0, 1.0) };
    let scaled = match rounding {
        StoreRounding::Floor => floor_f32(clamped * 255.0),
        StoreRounding::Nearest => floor_f32(clamped * 255.0 + 0.5),
    };
    scaled.min(255.0) as u8
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn texel_to_float_endpoints() {
        assert_eq!(texel_to_float(0), 0.0);
        assert_eq!(texel_to_float(255), 1.0);
        assert_eq!(texel_to_float(51), 51.0 / 255.0);
    }

    #[test]
    fn floor_store_of_exact_grid_points() {
        // Byte → float → byte must round-trip for every byte *only if* the
        // shader bumps the value; the raw c/255 grid happens to floor back
        // exactly because c/255 * 255 rounds to c in fp32.
        for c in 0..=255u8 {
            let f = texel_to_float(c);
            assert_eq!(float_to_texel(f, StoreRounding::Floor), c, "byte {c}");
        }
    }

    #[test]
    fn floor_vs_nearest_disagree_between_grid_points() {
        // A value just below the next grid point: floor keeps the lower
        // byte, nearest snaps up.
        let f = 100.9 / 255.0;
        assert_eq!(float_to_texel(f, StoreRounding::Floor), 100);
        assert_eq!(float_to_texel(f, StoreRounding::Nearest), 101);
    }

    #[test]
    fn clamping() {
        assert_eq!(float_to_texel(-0.5, StoreRounding::Floor), 0);
        assert_eq!(float_to_texel(1.5, StoreRounding::Floor), 255);
        assert_eq!(float_to_texel(f32::NAN, StoreRounding::Floor), 0);
        assert_eq!(float_to_texel(f32::INFINITY, StoreRounding::Floor), 255);
        assert_eq!(float_to_texel(f32::NEG_INFINITY, StoreRounding::Floor), 0);
    }

    #[test]
    fn exact_one_maps_to_255_under_floor() {
        // 1.0 * 255 = 255 exactly; floor must not lose it.
        assert_eq!(float_to_texel(1.0, StoreRounding::Floor), 255);
    }
}
