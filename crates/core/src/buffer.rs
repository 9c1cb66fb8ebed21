//! GPU-resident arrays and matrices: typed handles over RGBA8/LUMINANCE8
//! textures carrying packed numeric data.

use crate::addressing::ArrayLayout;
use crate::codec::{self, ScalarType};
use gpes_gles2::{TexFormat, TextureId};
use std::marker::PhantomData;

mod sealed {
    pub trait Sealed {}
    impl Sealed for u8 {}
    impl Sealed for i8 {}
    impl Sealed for u16 {}
    impl Sealed for i16 {}
    impl Sealed for u32 {}
    impl Sealed for i32 {}
    impl Sealed for f32 {}
}

/// Scalar element types that can travel through the ES 2 texture path.
///
/// This trait is sealed: the §IV formats (char, short and int variants
/// plus `f32`) are exactly the supported set.
pub trait GpuScalar: sealed::Sealed + Copy + PartialEq + std::fmt::Debug + Send + Sync {
    /// The runtime tag for this element type.
    const SCALAR: ScalarType;

    /// Encodes a slice into upload texel bytes (1 or 4 bytes per element,
    /// padded with zeros to `texel_count` texels).
    fn encode_texels(data: &[Self], texel_count: usize) -> Vec<u8>;

    /// Decodes elements from RGBA8 framebuffer bytes (always 4 bytes per
    /// pixel; byte-sized elements live in the R channel).
    fn decode_framebuffer(bytes: &[u8], len: usize) -> Vec<Self>;

    /// The upload texture format for this element type.
    fn tex_format() -> TexFormat {
        if Self::SCALAR.uses_rgba() {
            TexFormat::Rgba8
        } else {
            TexFormat::Luminance8
        }
    }
}

impl GpuScalar for u8 {
    const SCALAR: ScalarType = ScalarType::U8;

    fn encode_texels(data: &[Self], texel_count: usize) -> Vec<u8> {
        codec::ubyte::encode_slice(data, texel_count)
    }

    fn decode_framebuffer(bytes: &[u8], len: usize) -> Vec<Self> {
        codec::ubyte::decode_slice(bytes, len)
    }
}

impl GpuScalar for i8 {
    const SCALAR: ScalarType = ScalarType::I8;

    fn encode_texels(data: &[Self], texel_count: usize) -> Vec<u8> {
        codec::sbyte::encode_slice(data, texel_count)
    }

    fn decode_framebuffer(bytes: &[u8], len: usize) -> Vec<Self> {
        codec::sbyte::decode_slice(bytes, len)
    }
}

impl GpuScalar for u16 {
    const SCALAR: ScalarType = ScalarType::U16;

    fn encode_texels(data: &[Self], texel_count: usize) -> Vec<u8> {
        codec::ushort::encode_slice(data, texel_count)
    }

    fn decode_framebuffer(bytes: &[u8], len: usize) -> Vec<Self> {
        codec::ushort::decode_slice(bytes, len)
    }

    fn tex_format() -> TexFormat {
        TexFormat::LuminanceAlpha8
    }
}

impl GpuScalar for i16 {
    const SCALAR: ScalarType = ScalarType::I16;

    fn encode_texels(data: &[Self], texel_count: usize) -> Vec<u8> {
        codec::sshort::encode_slice(data, texel_count)
    }

    fn decode_framebuffer(bytes: &[u8], len: usize) -> Vec<Self> {
        codec::sshort::decode_slice(bytes, len)
    }

    fn tex_format() -> TexFormat {
        TexFormat::LuminanceAlpha8
    }
}

impl GpuScalar for u32 {
    const SCALAR: ScalarType = ScalarType::U32;

    fn encode_texels(data: &[Self], texel_count: usize) -> Vec<u8> {
        codec::uint::encode_slice(data, texel_count)
    }

    fn decode_framebuffer(bytes: &[u8], len: usize) -> Vec<Self> {
        codec::uint::decode_slice(bytes, len)
    }
}

impl GpuScalar for i32 {
    const SCALAR: ScalarType = ScalarType::I32;

    fn encode_texels(data: &[Self], texel_count: usize) -> Vec<u8> {
        codec::sint::encode_slice(data, texel_count)
    }

    fn decode_framebuffer(bytes: &[u8], len: usize) -> Vec<Self> {
        codec::sint::decode_slice(bytes, len)
    }
}

impl GpuScalar for f32 {
    const SCALAR: ScalarType = ScalarType::F32;

    fn encode_texels(data: &[Self], texel_count: usize) -> Vec<u8> {
        codec::float32::encode_slice(data, texel_count)
    }

    fn decode_framebuffer(bytes: &[u8], len: usize) -> Vec<Self> {
        codec::float32::decode_slice(bytes, len)
    }
}

/// A 1-D array resident in GPU texture memory.
///
/// Created by [`crate::ComputeContext::upload`] or as a kernel output;
/// the element type is tracked statically so a `GpuArray<f32>` cannot be
/// read back as integers by accident (C-NEWTYPE).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GpuArray<T: GpuScalar> {
    pub(crate) texture: TextureId,
    pub(crate) layout: ArrayLayout,
    pub(crate) _elem: PhantomData<T>,
}

impl<T: GpuScalar> GpuArray<T> {
    pub(crate) fn new(texture: TextureId, layout: ArrayLayout) -> Self {
        GpuArray {
            texture,
            layout,
            _elem: PhantomData,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.layout.len
    }

    /// Whether the array is empty (never true for live arrays).
    pub fn is_empty(&self) -> bool {
        self.layout.len == 0
    }

    /// The texture layout backing this array.
    pub fn layout(&self) -> ArrayLayout {
        self.layout
    }

    /// The backing texture handle (for interop with raw GL calls).
    pub fn texture(&self) -> TextureId {
        self.texture
    }

    /// The runtime scalar tag.
    pub fn scalar(&self) -> ScalarType {
        T::SCALAR
    }
}

/// An untyped RGBA8 texel buffer resident in GPU texture memory.
///
/// Used with [`crate::KernelBuilder::input_texels`] /
/// [`crate::KernelBuilder::output_texels`] by kernels that define their
/// own texel interpretation — packed multi-value layouts, complex-number
/// pairs, or related-work formats such as
/// [`crate::codec::strzodka16`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GpuTexels {
    pub(crate) texture: TextureId,
    pub(crate) layout: ArrayLayout,
}

impl GpuTexels {
    pub(crate) fn new(texture: TextureId, layout: ArrayLayout) -> Self {
        GpuTexels { texture, layout }
    }

    /// Number of texels.
    pub fn len(&self) -> usize {
        self.layout.texel_count()
    }

    /// Whether the buffer is empty (never true for live buffers).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The texture layout backing this buffer.
    pub fn layout(&self) -> ArrayLayout {
        self.layout
    }

    /// The backing texture handle.
    pub fn texture(&self) -> TextureId {
        self.texture
    }
}

impl<T: GpuScalar> GpuArray<T> {
    /// Reinterprets the array's backing texture as raw texels (no copy).
    pub fn as_texels(&self) -> GpuTexels {
        GpuTexels {
            texture: self.texture,
            layout: self.layout,
        }
    }

    /// Views this array as a `rows × cols` matrix (no copy). The backing
    /// texture must already have exactly that shape — true for any array
    /// produced by a grid-output kernel.
    ///
    /// # Errors
    ///
    /// `BadKernel` when the texture layout is not `rows × cols`.
    pub fn as_matrix(&self, rows: u32, cols: u32) -> Result<GpuMatrix<T>, crate::ComputeError> {
        if self.layout.width != cols || self.layout.height != rows {
            return Err(crate::ComputeError::bad_kernel(format!(
                "array laid out {}x{} cannot be viewed as a {rows}x{cols} matrix",
                self.layout.height, self.layout.width
            )));
        }
        Ok(GpuMatrix {
            texture: self.texture,
            layout: self.layout,
            _elem: PhantomData,
        })
    }
}

impl<T: GpuScalar> GpuMatrix<T> {
    /// Views this matrix as a linear array in row-major order (no copy).
    pub fn as_array(&self) -> GpuArray<T> {
        GpuArray {
            texture: self.texture,
            layout: self.layout,
            _elem: PhantomData,
        }
    }
}

/// A row-major 2-D matrix resident in GPU texture memory
/// (texel `(col, row)` holds element `(row, col)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GpuMatrix<T: GpuScalar> {
    pub(crate) texture: TextureId,
    pub(crate) layout: ArrayLayout,
    pub(crate) _elem: PhantomData<T>,
}

impl<T: GpuScalar> GpuMatrix<T> {
    pub(crate) fn new(texture: TextureId, layout: ArrayLayout) -> Self {
        GpuMatrix {
            texture,
            layout,
            _elem: PhantomData,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> u32 {
        self.layout.height
    }

    /// Number of columns.
    pub fn cols(&self) -> u32 {
        self.layout.width
    }

    /// Total element count.
    pub fn len(&self) -> usize {
        self.layout.len
    }

    /// Whether the matrix is empty (never true for live matrices).
    pub fn is_empty(&self) -> bool {
        self.layout.len == 0
    }

    /// The texture layout backing this matrix.
    pub fn layout(&self) -> ArrayLayout {
        self.layout
    }

    /// The backing texture handle.
    pub fn texture(&self) -> TextureId {
        self.texture
    }
}

/// Host tensor data with a runtime scalar tag — the type-erased twin of
/// `Vec<T: GpuScalar>`, so serving-layer jobs and results can carry any
/// §IV codec format through one channel without a generic parameter on
/// every queue type. Quantized u8/i16 tensors (the CNNdroid/TFLite
/// mobile-inference formats) travel as themselves: no widening to f32 at
/// the host boundary.
#[derive(Debug, Clone, PartialEq)]
pub enum TensorData {
    /// Unsigned byte elements (LUMINANCE8 upload path).
    U8(Vec<u8>),
    /// Signed byte elements.
    I8(Vec<i8>),
    /// Unsigned short elements (LUMINANCE_ALPHA8 upload path).
    U16(Vec<u16>),
    /// Signed short elements.
    I16(Vec<i16>),
    /// Unsigned int elements (RGBA8, 4 bytes per texel).
    U32(Vec<u32>),
    /// Signed int elements.
    I32(Vec<i32>),
    /// IEEE-754 single floats (the default serving format).
    F32(Vec<f32>),
}

impl TensorData {
    /// The runtime scalar tag.
    pub fn scalar(&self) -> ScalarType {
        match self {
            TensorData::U8(_) => ScalarType::U8,
            TensorData::I8(_) => ScalarType::I8,
            TensorData::U16(_) => ScalarType::U16,
            TensorData::I16(_) => ScalarType::I16,
            TensorData::U32(_) => ScalarType::U32,
            TensorData::I32(_) => ScalarType::I32,
            TensorData::F32(_) => ScalarType::F32,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        match self {
            TensorData::U8(v) => v.len(),
            TensorData::I8(v) => v.len(),
            TensorData::U16(v) => v.len(),
            TensorData::I16(v) => v.len(),
            TensorData::U32(v) => v.len(),
            TensorData::I32(v) => v.len(),
            TensorData::F32(v) => v.len(),
        }
    }

    /// Whether the tensor has no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Host bytes held (element size × len) — the quantity resident-input
    /// quotas meter, so a u8 tensor costs a quarter of an f32 one.
    pub fn byte_len(&self) -> usize {
        let elem = match self {
            TensorData::U8(_) | TensorData::I8(_) => 1,
            TensorData::U16(_) | TensorData::I16(_) => 2,
            TensorData::U32(_) | TensorData::I32(_) | TensorData::F32(_) => 4,
        };
        elem * self.len()
    }

    /// The f32 payload, when this is an f32 tensor.
    pub fn as_f32(&self) -> Option<&[f32]> {
        match self {
            TensorData::F32(v) => Some(v.as_slice()),
            _ => None,
        }
    }

    /// The u8 payload, when this is a u8 tensor.
    pub fn as_u8(&self) -> Option<&[u8]> {
        match self {
            TensorData::U8(v) => Some(v.as_slice()),
            _ => None,
        }
    }

    /// The i16 payload, when this is an i16 tensor.
    pub fn as_i16(&self) -> Option<&[i16]> {
        match self {
            TensorData::I16(v) => Some(v.as_slice()),
            _ => None,
        }
    }

    /// The u16 payload, when this is a u16 tensor.
    pub fn as_u16(&self) -> Option<&[u16]> {
        match self {
            TensorData::U16(v) => Some(v.as_slice()),
            _ => None,
        }
    }
}

impl From<Vec<u8>> for TensorData {
    fn from(v: Vec<u8>) -> TensorData {
        TensorData::U8(v)
    }
}

impl From<Vec<i8>> for TensorData {
    fn from(v: Vec<i8>) -> TensorData {
        TensorData::I8(v)
    }
}

impl From<Vec<u16>> for TensorData {
    fn from(v: Vec<u16>) -> TensorData {
        TensorData::U16(v)
    }
}

impl From<Vec<i16>> for TensorData {
    fn from(v: Vec<i16>) -> TensorData {
        TensorData::I16(v)
    }
}

impl From<Vec<u32>> for TensorData {
    fn from(v: Vec<u32>) -> TensorData {
        TensorData::U32(v)
    }
}

impl From<Vec<i32>> for TensorData {
    fn from(v: Vec<i32>) -> TensorData {
        TensorData::I32(v)
    }
}

impl From<Vec<f32>> for TensorData {
    fn from(v: Vec<f32>) -> TensorData {
        TensorData::F32(v)
    }
}

/// A GPU array whose element type is carried at runtime instead of in the
/// type system — the on-GPU twin of [`TensorData`]. Everything the typed
/// [`GpuArray<T>`] knows (texture, layout) plus the scalar tag, so the
/// serving worker can bind, chain and read back mixed-format buffers
/// through one code path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnyGpuArray {
    pub(crate) texture: TextureId,
    pub(crate) layout: ArrayLayout,
    pub(crate) scalar: ScalarType,
}

impl AnyGpuArray {
    /// Number of elements.
    pub fn len(&self) -> usize {
        self.layout.len
    }

    /// Whether the array is empty (never true for live arrays).
    pub fn is_empty(&self) -> bool {
        self.layout.len == 0
    }

    /// The texture layout backing this array.
    pub fn layout(&self) -> ArrayLayout {
        self.layout
    }

    /// The backing texture handle.
    pub fn texture(&self) -> TextureId {
        self.texture
    }

    /// The runtime scalar tag.
    pub fn scalar(&self) -> ScalarType {
        self.scalar
    }

    /// Recovers the typed view; `None` when `T` is not the stored scalar.
    pub fn downcast<T: GpuScalar>(&self) -> Option<GpuArray<T>> {
        (self.scalar == T::SCALAR).then(|| GpuArray::new(self.texture, self.layout))
    }
}

impl<T: GpuScalar> From<GpuArray<T>> for AnyGpuArray {
    fn from(array: GpuArray<T>) -> AnyGpuArray {
        AnyGpuArray {
            texture: array.texture,
            layout: array.layout,
            scalar: T::SCALAR,
        }
    }
}

impl<T: GpuScalar> GpuArray<T> {
    /// Erases the static element type into a runtime-tagged handle.
    pub fn erase(&self) -> AnyGpuArray {
        AnyGpuArray::from(*self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u8_encode_pads_and_decodes_r_channel() {
        let enc = u8::encode_texels(&[1, 2, 3], 5);
        assert_eq!(enc, vec![1, 2, 3, 0, 0]);
        let fb = vec![9, 0, 0, 255, 8, 0, 0, 255, 7, 0, 0, 255];
        assert_eq!(u8::decode_framebuffer(&fb, 2), vec![9, 8]);
    }

    #[test]
    fn i8_two_complement_texels() {
        let enc = i8::encode_texels(&[-1, 2], 2);
        assert_eq!(enc, vec![255, 2]);
        let fb = vec![255, 0, 0, 0, 128, 0, 0, 0];
        assert_eq!(i8::decode_framebuffer(&fb, 2), vec![-1, -128]);
    }

    #[test]
    fn u32_round_trip_through_texels() {
        let values = [0u32, 1, 0xDEAD, 0x00C0FFEE];
        let enc = u32::encode_texels(&values, 4);
        assert_eq!(enc.len(), 16);
        let dec = u32::decode_framebuffer(&enc, 4);
        assert_eq!(dec, values);
    }

    #[test]
    fn f32_round_trip_through_texels() {
        let values = [0.0f32, 1.5, -2.25e7, f32::MIN_POSITIVE];
        let enc = f32::encode_texels(&values, 4);
        let dec = f32::decode_framebuffer(&enc, 4);
        assert_eq!(dec, values);
    }

    #[test]
    fn formats_per_scalar() {
        assert_eq!(u8::tex_format(), TexFormat::Luminance8);
        assert_eq!(i8::tex_format(), TexFormat::Luminance8);
        assert_eq!(u16::tex_format(), TexFormat::LuminanceAlpha8);
        assert_eq!(i16::tex_format(), TexFormat::LuminanceAlpha8);
        assert_eq!(f32::tex_format(), TexFormat::Rgba8);
        assert_eq!(i32::tex_format(), TexFormat::Rgba8);
    }

    #[test]
    fn u16_round_trip_through_texels() {
        let values = [0u16, 1, 255, 256, 0x1234, u16::MAX];
        let enc = u16::encode_texels(&values, 6);
        assert_eq!(enc.len(), 12); // 2 bytes per LUMINANCE_ALPHA texel
        assert_eq!(&enc[..2], &[0, 0]);
        assert_eq!(&enc[8..10], &[0x34, 0x12]);
        // Framebuffer bytes place the pair in R and A.
        let fb: Vec<u8> = values
            .iter()
            .flat_map(|v| {
                let b = v.to_le_bytes();
                [b[0], 0, 0, b[1]]
            })
            .collect();
        assert_eq!(u16::decode_framebuffer(&fb, 6), values);
    }

    #[test]
    fn i16_round_trip_through_texels() {
        let values = [0i16, -1, i16::MIN, i16::MAX, -12345];
        let enc = i16::encode_texels(&values, 5);
        assert_eq!(&enc[2..4], &[0xFF, 0xFF]);
        let fb: Vec<u8> = values
            .iter()
            .flat_map(|v| {
                let b = v.to_le_bytes();
                [b[0], 0, 0, b[1]]
            })
            .collect();
        assert_eq!(i16::decode_framebuffer(&fb, 5), values);
    }

    #[test]
    fn array_accessors() {
        let layout = ArrayLayout {
            len: 10,
            width: 4,
            height: 3,
        };
        let arr: GpuArray<f32> = GpuArray::new(TextureId(7), layout);
        assert_eq!(arr.len(), 10);
        assert!(!arr.is_empty());
        assert_eq!(arr.scalar(), ScalarType::F32);
        assert_eq!(arr.texture(), TextureId(7));
    }

    #[test]
    fn matrix_accessors() {
        let layout = ArrayLayout {
            len: 12,
            width: 4,
            height: 3,
        };
        let m: GpuMatrix<i32> = GpuMatrix::new(TextureId(2), layout);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 4);
        assert_eq!(m.len(), 12);
    }

    #[test]
    fn tensor_data_tags_and_byte_lengths() {
        let t: TensorData = vec![1u8, 2, 3].into();
        assert_eq!(t.scalar(), ScalarType::U8);
        assert_eq!(t.len(), 3);
        assert_eq!(t.byte_len(), 3);
        assert_eq!(t.as_u8(), Some(&[1u8, 2, 3][..]));
        assert!(t.as_f32().is_none());
        let t: TensorData = vec![-7i16, 12].into();
        assert_eq!(t.scalar(), ScalarType::I16);
        assert_eq!(t.byte_len(), 4);
        assert_eq!(t.as_i16(), Some(&[-7i16, 12][..]));
        let t: TensorData = vec![1.5f32].into();
        assert_eq!(t.scalar(), ScalarType::F32);
        assert_eq!(t.byte_len(), 4);
        assert!(!t.is_empty());
        let t: TensorData = vec![9u16].into();
        assert_eq!(t.byte_len(), 2);
        assert_eq!(t.as_u16(), Some(&[9u16][..]));
    }

    #[test]
    fn any_array_erase_and_downcast() {
        let layout = ArrayLayout {
            len: 10,
            width: 4,
            height: 3,
        };
        let arr: GpuArray<i16> = GpuArray::new(TextureId(5), layout);
        let any = arr.erase();
        assert_eq!(any.scalar(), ScalarType::I16);
        assert_eq!(any.len(), 10);
        assert_eq!(any.texture(), TextureId(5));
        assert_eq!(any.downcast::<i16>(), Some(arr));
        assert!(any.downcast::<f32>().is_none());
    }
}
