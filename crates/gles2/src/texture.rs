//! Texture objects: byte-only formats, ES 2 completeness rules, filtering
//! and wrap modes.
//!
//! Limitation #5 of the paper is enforced *by construction*: [`TexFormat`]
//! has no floating-point variants, so float data can only enter a texture
//! through the numeric transformations of §IV.

use crate::convert::texel_to_float;
use crate::error::GlError;
use gpes_glsl::builtins::floor_f32;

/// Texel storage formats available in core OpenGL ES 2.0 (byte-based only).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TexFormat {
    /// 4 bytes per texel, RGBA order. The GPGPU workhorse.
    Rgba8,
    /// 3 bytes per texel.
    Rgb8,
    /// 1 byte per texel, replicated to RGB; alpha = 1.
    Luminance8,
    /// 2 bytes per texel, sampled as (L, L, L, A) — the classic ES 2
    /// carrier for two-byte payloads (the short codecs read `.ra`).
    LuminanceAlpha8,
    /// 8 bytes per texel: four binary16 floats, **extension-only**
    /// (`OES_texture_half_float`, §II.5). Not part of core ES 2 — the
    /// context rejects it unless the extension is enabled.
    RgbaF16,
}

impl TexFormat {
    /// Bytes per texel.
    pub fn bytes_per_texel(self) -> usize {
        match self {
            TexFormat::Rgba8 => 4,
            TexFormat::Rgb8 => 3,
            TexFormat::Luminance8 => 1,
            TexFormat::LuminanceAlpha8 => 2,
            TexFormat::RgbaF16 => 8,
        }
    }

    /// Whether the format needs a driver extension (vs. core ES 2.0).
    pub fn requires_extension(self) -> bool {
        matches!(self, TexFormat::RgbaF16)
    }
}

/// Minification/magnification filters. Mipmapped minification filters from
/// full ES 2 are not part of this GPGPU-oriented subset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Filter {
    /// Nearest-texel sampling — what GPGPU kernels use for exactness.
    #[default]
    Nearest,
    /// Bilinear interpolation.
    Linear,
}

/// Texture coordinate wrap modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Wrap {
    /// Clamp to the edge texel (the only mode valid for NPOT textures).
    #[default]
    ClampToEdge,
    /// Repeat (fractional part).
    Repeat,
    /// Mirrored repeat.
    MirroredRepeat,
}

/// A texture object.
#[derive(Debug, Clone)]
pub struct Texture {
    format: TexFormat,
    width: u32,
    height: u32,
    data: Vec<u8>,
    /// Minification filter.
    pub min_filter: Filter,
    /// Magnification filter.
    pub mag_filter: Filter,
    /// Wrap mode for the s (x) coordinate.
    pub wrap_s: Wrap,
    /// Wrap mode for the t (y) coordinate.
    pub wrap_t: Wrap,
}

impl Texture {
    /// Creates an empty (zero-sized, incomplete) texture object, like
    /// `glGenTextures`.
    pub fn new() -> Texture {
        Texture {
            format: TexFormat::Rgba8,
            width: 0,
            height: 0,
            data: Vec::new(),
            min_filter: Filter::default(),
            mag_filter: Filter::default(),
            wrap_s: Wrap::default(),
            wrap_t: Wrap::default(),
        }
    }

    /// Uploads image data (`glTexImage2D`). `data` must be exactly
    /// `width * height * bytes_per_texel` long, rows bottom-to-top.
    ///
    /// # Errors
    ///
    /// `InvalidValue` on size/data mismatch or zero dimensions beyond the
    /// 4096² limit this implementation advertises.
    pub fn tex_image_2d(
        &mut self,
        format: TexFormat,
        width: u32,
        height: u32,
        data: &[u8],
    ) -> Result<(), GlError> {
        const MAX_SIZE: u32 = 4096;
        if width == 0 || height == 0 || width > MAX_SIZE || height > MAX_SIZE {
            return Err(GlError::invalid_value(format!(
                "texture size {width}x{height} outside 1..={MAX_SIZE}"
            )));
        }
        let expected = width as usize * height as usize * format.bytes_per_texel();
        if data.len() != expected {
            return Err(GlError::invalid_value(format!(
                "texture data length {} does not match {width}x{height} {format:?} ({expected})",
                data.len()
            )));
        }
        self.format = format;
        self.width = width;
        self.height = height;
        self.data = data.to_vec();
        Ok(())
    }

    /// Allocates uninitialised (zeroed) storage, as `glTexImage2D` with a
    /// null pointer does — used for render targets.
    ///
    /// # Errors
    ///
    /// Same size limits as [`Texture::tex_image_2d`].
    pub fn tex_storage(
        &mut self,
        format: TexFormat,
        width: u32,
        height: u32,
    ) -> Result<(), GlError> {
        let len = width as usize * height as usize * format.bytes_per_texel();
        let zeros = vec![0u8; len];
        self.tex_image_2d(format, width, height, &zeros)
    }

    /// Overwrites a sub-rectangle (`glTexSubImage2D`).
    ///
    /// # Errors
    ///
    /// `InvalidValue` if the rectangle is out of bounds or data mismatched.
    pub fn tex_sub_image_2d(
        &mut self,
        x: u32,
        y: u32,
        width: u32,
        height: u32,
        data: &[u8],
    ) -> Result<(), GlError> {
        if x + width > self.width || y + height > self.height {
            return Err(GlError::invalid_value("subimage rectangle out of bounds"));
        }
        let bpt = self.format.bytes_per_texel();
        if data.len() != width as usize * height as usize * bpt {
            return Err(GlError::invalid_value("subimage data length mismatch"));
        }
        for row in 0..height as usize {
            let dst_off = ((y as usize + row) * self.width as usize + x as usize) * bpt;
            let src_off = row * width as usize * bpt;
            self.data[dst_off..dst_off + width as usize * bpt]
                .copy_from_slice(&data[src_off..src_off + width as usize * bpt]);
        }
        Ok(())
    }

    /// Texture width in texels.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Texture height in texels.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Storage format.
    pub fn format(&self) -> TexFormat {
        self.format
    }

    /// Raw texel bytes (row 0 first).
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// Mutable raw texel bytes (used by render-to-texture).
    pub(crate) fn data_mut(&mut self) -> &mut Vec<u8> {
        &mut self.data
    }

    /// Whether both dimensions are powers of two.
    pub fn is_pot(&self) -> bool {
        self.width.is_power_of_two() && self.height.is_power_of_two()
    }

    /// ES 2 texture-completeness: storage exists, and NPOT textures use
    /// `ClampToEdge` wrapping (mipmapping is outside this subset, so the
    /// NPOT no-mipmap rule is satisfied trivially).
    ///
    /// Sampling an incomplete texture returns opaque black, as mandated.
    pub fn is_complete(&self) -> bool {
        if self.width == 0 || self.height == 0 {
            return false;
        }
        if !self.is_pot() && (self.wrap_s != Wrap::ClampToEdge || self.wrap_t != Wrap::ClampToEdge)
        {
            return false;
        }
        true
    }

    /// Reads texel `(x, y)` as normalised RGBA floats (eq. (1)); clamps
    /// coordinates to the edge.
    pub fn texel(&self, x: i64, y: i64) -> [f32; 4] {
        let x = x.clamp(0, self.width as i64 - 1) as usize;
        let y = y.clamp(0, self.height as i64 - 1) as usize;
        let bpt = self.format.bytes_per_texel();
        let off = (y * self.width as usize + x) * bpt;
        match self.format {
            TexFormat::Rgba8 => [
                texel_to_float(self.data[off]),
                texel_to_float(self.data[off + 1]),
                texel_to_float(self.data[off + 2]),
                texel_to_float(self.data[off + 3]),
            ],
            TexFormat::Rgb8 => [
                texel_to_float(self.data[off]),
                texel_to_float(self.data[off + 1]),
                texel_to_float(self.data[off + 2]),
                1.0,
            ],
            TexFormat::Luminance8 => {
                let l = texel_to_float(self.data[off]);
                [l, l, l, 1.0]
            }
            TexFormat::LuminanceAlpha8 => {
                let l = texel_to_float(self.data[off]);
                let a = texel_to_float(self.data[off + 1]);
                [l, l, l, a]
            }
            TexFormat::RgbaF16 => {
                let h = |i: usize| {
                    crate::half::f16_bits_to_f32(u16::from_le_bytes([
                        self.data[off + 2 * i],
                        self.data[off + 2 * i + 1],
                    ]))
                };
                [h(0), h(1), h(2), h(3)]
            }
        }
    }

    fn wrap_coord(coord: f32, mode: Wrap) -> f32 {
        match mode {
            Wrap::ClampToEdge => coord.clamp(0.0, 1.0),
            Wrap::Repeat => coord - floor_f32(coord),
            Wrap::MirroredRepeat => {
                let t = trunc_fract(coord * 0.5).abs() * 2.0;
                let t = if coord < 0.0 { 2.0 - t } else { t };
                if t > 1.0 {
                    2.0 - t
                } else {
                    t
                }
            }
        }
    }

    /// Samples at normalised coordinates with the configured filter and
    /// wrap modes. Incomplete textures sample as opaque black.
    pub fn sample(&self, coord: [f32; 2]) -> [f32; 4] {
        if !self.is_complete() {
            return [0.0, 0.0, 0.0, 1.0];
        }
        let u = Self::wrap_coord(coord[0], self.wrap_s);
        let v = Self::wrap_coord(coord[1], self.wrap_t);
        match self.mag_filter {
            Filter::Nearest => {
                let x = (floor_f32(u * self.width as f32) as i64).min(self.width as i64 - 1);
                let y = (floor_f32(v * self.height as f32) as i64).min(self.height as i64 - 1);
                self.texel(x, y)
            }
            Filter::Linear => {
                let fx = u * self.width as f32 - 0.5;
                let fy = v * self.height as f32 - 0.5;
                let x0 = floor_f32(fx);
                let y0 = floor_f32(fy);
                let tx = fx - x0;
                let ty = fy - y0;
                let (x0, y0) = (x0 as i64, y0 as i64);
                let c00 = self.texel(x0, y0);
                let c10 = self.texel(x0 + 1, y0);
                let c01 = self.texel(x0, y0 + 1);
                let c11 = self.texel(x0 + 1, y0 + 1);
                let mut out = [0.0f32; 4];
                for (i, slot) in out.iter_mut().enumerate() {
                    let top = c00[i] * (1.0 - tx) + c10[i] * tx;
                    let bottom = c01[i] * (1.0 - tx) + c11[i] * tx;
                    *slot = top * (1.0 - ty) + bottom * ty;
                }
                out
            }
        }
    }
}

impl Default for Texture {
    fn default() -> Self {
        Texture::new()
    }
}

/// `x − trunc(x)` (Rust's `f32::fract`, not GLSL's `fract`), on the inline
/// [`floor_f32`] rather than an out-of-line `truncf` call.
fn trunc_fract(x: f32) -> f32 {
    x - floor_f32(x.abs()).copysign(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convert::{float_to_texel, StoreRounding};

    /// Edge classes for the floors: signed zeros, denormals, the normal
    /// range's ends, halves, the 2²³ boundary where every float is
    /// integral, infinities and NaN, plus a sweep of ordinary values.
    fn float_edges() -> Vec<f32> {
        let mut edges = vec![
            0.0,
            f32::from_bits(1),
            f32::from_bits(0x007f_ffff),
            f32::MIN_POSITIVE,
            0.5,
            0.999_999_94,
            1.0,
            1.5,
            254.999_98,
            255.0,
            8_388_607.0,
            8_388_607.5,
            8_388_608.0,
            8_388_609.0,
            16_777_216.0,
            f32::MAX,
            f32::INFINITY,
            f32::NAN,
        ];
        edges.extend((0..2000).map(|i| i as f32 * 0.013_7 - 3.1));
        let negated: Vec<f32> = edges.iter().map(|&x| -x).collect();
        edges.extend(negated);
        edges
    }

    /// Each expression that moved from `f32::floor`/`f32::fract` to the
    /// inline helpers gives the same bits as before on every edge class.
    #[test]
    fn inline_floors_are_bit_identical_to_std() {
        for x in float_edges() {
            let same = |new: f32, old: f32, what: &str| {
                assert_eq!(new.to_bits(), old.to_bits(), "{what} at {x:e}");
            };
            same(
                Texture::wrap_coord(x, Wrap::Repeat),
                x - x.floor(),
                "repeat wrap",
            );
            same(trunc_fract(x), x.fract(), "trunc fract");
            let t = (x * 0.5).fract().abs() * 2.0;
            let t = if x < 0.0 { 2.0 - t } else { t };
            same(
                Texture::wrap_coord(x, Wrap::MirroredRepeat),
                if t > 1.0 { 2.0 - t } else { t },
                "mirrored wrap",
            );
            for scale in [1.0, 7.0, 4096.0] {
                assert_eq!(floor_f32(x * scale) as i64, (x * scale).floor() as i64);
            }
            same(floor_f32(x - 0.5), (x - 0.5).floor(), "linear filter");
            for rounding in [StoreRounding::Floor, StoreRounding::Nearest] {
                let clamped = if x.is_nan() { 0.0 } else { x.clamp(0.0, 1.0) };
                let old = match rounding {
                    StoreRounding::Floor => (clamped * 255.0).floor(),
                    StoreRounding::Nearest => (clamped * 255.0 + 0.5).floor(),
                };
                assert_eq!(float_to_texel(x, rounding), old.min(255.0) as u8, "{x:e}");
            }
        }
    }

    fn checker2x2() -> Texture {
        let mut t = Texture::new();
        // 2x2 RGBA: red, green / blue, white
        t.tex_image_2d(
            TexFormat::Rgba8,
            2,
            2,
            &[
                255, 0, 0, 255, /**/ 0, 255, 0, 255, //
                0, 0, 255, 255, /**/ 255, 255, 255, 255,
            ],
        )
        .expect("upload");
        t
    }

    #[test]
    fn upload_validates_length() {
        let mut t = Texture::new();
        let err = t
            .tex_image_2d(TexFormat::Rgba8, 2, 2, &[0u8; 15])
            .unwrap_err();
        assert!(matches!(err, GlError::InvalidValue { .. }));
        assert!(t.tex_image_2d(TexFormat::Rgba8, 2, 2, &[0u8; 16]).is_ok());
        assert!(t
            .tex_image_2d(TexFormat::Luminance8, 3, 3, &[0u8; 9])
            .is_ok());
    }

    #[test]
    fn size_limits() {
        let mut t = Texture::new();
        assert!(t.tex_image_2d(TexFormat::Rgba8, 0, 1, &[]).is_err());
        assert!(t.tex_storage(TexFormat::Rgba8, 5000, 1).is_err());
    }

    #[test]
    fn nearest_sampling_hits_texel_centers() {
        let t = checker2x2();
        assert_eq!(t.sample([0.25, 0.25]), [1.0, 0.0, 0.0, 1.0]); // red
        assert_eq!(t.sample([0.75, 0.25]), [0.0, 1.0, 0.0, 1.0]); // green
        assert_eq!(t.sample([0.25, 0.75]), [0.0, 0.0, 1.0, 1.0]); // blue
        assert_eq!(t.sample([0.75, 0.75]), [1.0, 1.0, 1.0, 1.0]); // white
    }

    #[test]
    fn linear_filter_blends() {
        let mut t = checker2x2();
        t.mag_filter = Filter::Linear;
        let c = t.sample([0.5, 0.25]); // midway between red and green centres
        assert!((c[0] - 0.5).abs() < 1e-6);
        assert!((c[1] - 0.5).abs() < 1e-6);
        assert_eq!(c[3], 1.0);
    }

    #[test]
    fn npot_with_repeat_is_incomplete_and_samples_black() {
        let mut t = Texture::new();
        t.tex_image_2d(TexFormat::Luminance8, 3, 1, &[255, 255, 255])
            .expect("upload");
        assert!(t.is_complete());
        t.wrap_s = Wrap::Repeat;
        assert!(!t.is_complete());
        assert_eq!(t.sample([0.5, 0.5]), [0.0, 0.0, 0.0, 1.0]);
        t.wrap_s = Wrap::ClampToEdge;
        assert_eq!(t.sample([0.5, 0.5]), [1.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn pot_repeat_wraps() {
        let mut t = checker2x2();
        t.wrap_s = Wrap::Repeat;
        t.wrap_t = Wrap::Repeat;
        assert!(t.is_complete());
        // 1.25 wraps to 0.25.
        assert_eq!(t.sample([1.25, 0.25]), [1.0, 0.0, 0.0, 1.0]);
        assert_eq!(t.sample([-0.75, 0.25]), [1.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    fn mirrored_repeat() {
        let mut t = checker2x2();
        t.wrap_s = Wrap::MirroredRepeat;
        // u = 1.25 mirrors to 0.75.
        assert_eq!(t.sample([1.25, 0.25]), [0.0, 1.0, 0.0, 1.0]);
    }

    #[test]
    fn luminance_replicates() {
        let mut t = Texture::new();
        t.tex_image_2d(TexFormat::Luminance8, 1, 1, &[51])
            .expect("upload");
        let c = t.sample([0.5, 0.5]);
        let l = 51.0 / 255.0;
        assert_eq!(c, [l, l, l, 1.0]);
    }

    #[test]
    fn half_float_texels_are_unnormalised() {
        let mut t = Texture::new();
        let mut data = Vec::new();
        for v in [100.0f32, -0.5, 65504.0, 1.0] {
            data.extend_from_slice(&crate::half::f32_to_f16_bits(v).to_le_bytes());
        }
        t.tex_image_2d(TexFormat::RgbaF16, 1, 1, &data)
            .expect("upload");
        // No eq. (1) normalisation: floats come back as stored.
        assert_eq!(t.sample([0.5, 0.5]), [100.0, -0.5, 65504.0, 1.0]);
    }

    #[test]
    fn luminance_alpha_splits_channels() {
        let mut t = Texture::new();
        t.tex_image_2d(TexFormat::LuminanceAlpha8, 2, 1, &[51, 102, 153, 204])
            .expect("upload");
        let l = 51.0 / 255.0;
        let a = 102.0 / 255.0;
        assert_eq!(t.sample([0.25, 0.5]), [l, l, l, a]);
        let l = 153.0 / 255.0;
        let a = 204.0 / 255.0;
        assert_eq!(t.sample([0.75, 0.5]), [l, l, l, a]);
    }

    #[test]
    fn sub_image_updates_rectangle() {
        let mut t = checker2x2();
        t.tex_sub_image_2d(1, 1, 1, 1, &[9, 9, 9, 255])
            .expect("sub");
        let c = t.texel(1, 1);
        assert!((c[0] - 9.0 / 255.0).abs() < 1e-7);
        assert!(t.tex_sub_image_2d(2, 0, 1, 1, &[0, 0, 0, 0]).is_err());
    }

    #[test]
    fn zero_sized_texture_incomplete() {
        let t = Texture::new();
        assert!(!t.is_complete());
        assert_eq!(t.sample([0.5, 0.5]), [0.0, 0.0, 0.0, 1.0]);
    }
}
