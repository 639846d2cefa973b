//! Global device memory: typed-as-bits linear buffers plus the coalescing
//! model.

/// CUDA's `cudaTextureAddressMode`: how the texture unit resolves
/// out-of-range coordinates — hardware border handling, one mode per
/// software pattern.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TexAddressMode {
    /// `cudaAddressModeClamp`.
    Clamp,
    /// `cudaAddressModeWrap` (the software `Repeat` pattern).
    Wrap,
    /// `cudaAddressModeMirror`.
    Mirror,
    /// `cudaAddressModeBorder`: out-of-range fetches return this value.
    Border(f32),
}

impl TexAddressMode {
    /// Resolve a coordinate against an axis of length `size`.
    pub fn resolve(&self, idx: i64, size: usize) -> Option<usize> {
        let s = size as i64;
        if (0..s).contains(&idx) {
            return Some(idx as usize);
        }
        match self {
            TexAddressMode::Clamp => Some(idx.clamp(0, s - 1) as usize),
            TexAddressMode::Wrap => Some(idx.rem_euclid(s) as usize),
            TexAddressMode::Mirror => {
                // Reflect with edge included, folded into [0, s).
                let period = 2 * s;
                let m = idx.rem_euclid(period);
                Some(if m < s {
                    m as usize
                } else {
                    (period - 1 - m) as usize
                })
            }
            TexAddressMode::Border(_) => None,
        }
    }

    /// The fill value for `Border`, 0.0 otherwise.
    pub fn border_value(&self) -> f32 {
        match self {
            TexAddressMode::Border(v) => *v,
            _ => 0.0,
        }
    }
}

/// 2D texture binding for a buffer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TexDesc {
    /// Texture width in elements.
    pub width: usize,
    /// Texture height in elements.
    pub height: usize,
    /// Hardware address mode.
    pub mode: TexAddressMode,
}

/// A linear device allocation of 32-bit elements, stored as raw bit
/// patterns. Kernels decide per-access whether an element is `f32` or `s32`
/// (exactly like global memory on real hardware). A buffer may additionally
/// carry a texture binding, enabling `tex.2d` fetches with hardware border
/// handling.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceBuffer {
    bits: Vec<u32>,
    tex: Option<TexDesc>,
}

impl DeviceBuffer {
    /// Allocate `len` elements, zero-initialised.
    pub fn zeroed(len: usize) -> Self {
        DeviceBuffer {
            bits: vec![0; len],
            tex: None,
        }
    }

    /// Upload a slice of `f32` values.
    pub fn from_f32(data: &[f32]) -> Self {
        DeviceBuffer {
            bits: data.iter().map(|v| v.to_bits()).collect(),
            tex: None,
        }
    }

    /// Upload `f32` rows laid end to end, in one pass over the source (no
    /// packed intermediate copy) into a buffer allocated once at its exact
    /// size: how a strided image reaches the device.
    pub fn from_f32_rows<'a, I>(rows: I) -> Self
    where
        I: IntoIterator<Item = &'a [f32]>,
        I::IntoIter: Clone,
    {
        let rows = rows.into_iter();
        let mut bits = Vec::with_capacity(rows.clone().map(<[f32]>::len).sum());
        for row in rows {
            bits.extend(row.iter().map(|v| v.to_bits()));
        }
        DeviceBuffer { bits, tex: None }
    }

    /// Upload a slice of `i32` values.
    pub fn from_i32(data: &[i32]) -> Self {
        DeviceBuffer {
            bits: data.iter().map(|&v| v as u32).collect(),
            tex: None,
        }
    }

    /// Bind this buffer as a 2D texture (row-major, `width * height` must
    /// equal the element count).
    pub fn with_texture(mut self, desc: TexDesc) -> Self {
        assert_eq!(
            desc.width * desc.height,
            self.bits.len(),
            "texture descriptor must match the allocation"
        );
        self.tex = Some(desc);
        self
    }

    /// The texture binding, if any.
    pub fn texture(&self) -> Option<&TexDesc> {
        self.tex.as_ref()
    }

    /// Element count.
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// The raw element storage, for full-warp gathers (the caller has
    /// bounds-checked every address).
    #[inline]
    pub fn bits(&self) -> &[u32] {
        &self.bits
    }

    /// Read raw bits (caller has bounds-checked).
    #[inline]
    pub fn load_bits(&self, addr: usize) -> u32 {
        self.bits[addr]
    }

    /// Read raw bits without a bounds check.
    ///
    /// # Safety
    /// `addr` must be less than [`DeviceBuffer::len`].
    #[inline]
    pub unsafe fn load_bits_unchecked(&self, addr: usize) -> u32 {
        debug_assert!(addr < self.bits.len());
        *self.bits.get_unchecked(addr)
    }

    /// Copy `out.len()` consecutive elements starting at `addr` into `out`.
    ///
    /// # Safety
    /// `addr + out.len()` must not exceed [`DeviceBuffer::len`].
    #[inline]
    pub unsafe fn load_span_unchecked(&self, addr: usize, out: &mut [u32]) {
        debug_assert!(addr + out.len() <= self.bits.len());
        out.copy_from_slice(self.bits.get_unchecked(addr..addr + out.len()));
    }

    /// Write raw bits.
    #[inline]
    pub fn store_bits(&mut self, addr: usize, bits: u32) {
        self.bits[addr] = bits;
    }

    /// Download as `f32` values.
    pub fn to_f32(&self) -> Vec<f32> {
        self.bits.iter().map(|&b| f32::from_bits(b)).collect()
    }

    /// Download as `f32` values, consuming the buffer: the element storage
    /// is reinterpreted in place rather than copied.
    pub fn into_f32(self) -> Vec<f32> {
        // `u32 -> f32` keeps size and alignment, so the standard library
        // collects this map into the source allocation.
        self.bits.into_iter().map(f32::from_bits).collect()
    }

    /// Download as `i32` values.
    pub fn to_i32(&self) -> Vec<i32> {
        self.bits.iter().map(|&b| b as i32).collect()
    }
}

/// Number of 128-byte transactions needed to service a warp's worth of
/// 4-byte accesses at the given element addresses (`None` = lane inactive).
///
/// This is the coalescing rule of every post-Fermi NVIDIA GPU: the memory
/// system fetches aligned 128-byte segments; a warp reading 32 consecutive
/// aligned floats needs 1 transaction, a strided or scattered warp needs up
/// to 32. The paper's warp-grained partitioning (§V-B) exists precisely
/// because "the block layout in GPU applications is mostly wide in
/// x-dimension, which uses memory more efficiently" — wide rows coalesce.
pub fn transactions_for_warp(addrs: &[Option<i64>]) -> u64 {
    const ELEMS_PER_SEGMENT: i64 = 32; // 128 bytes / 4-byte elements
    let mut segments: Vec<i64> = addrs
        .iter()
        .flatten()
        .map(|&a| a.div_euclid(ELEMS_PER_SEGMENT))
        .collect();
    segments.sort_unstable();
    segments.dedup();
    segments.len() as u64
}

/// Allocation-free [`transactions_for_warp`] for a full warp's address
/// array: the segment scratch lives on the stack, so the decoded
/// interpreter's hot loop does no heap work per memory instruction. The
/// count is identical to the Vec-based reference (same sort + dedup rule).
pub fn transactions_for_warp_fixed(addrs: &[Option<i64>; 32]) -> u64 {
    const ELEMS_PER_SEGMENT: i64 = 32;
    let mut segments = [0i64; 32];
    let mut n = 0usize;
    let mut monotonic = true;
    for a in addrs.iter().flatten() {
        let s = a.div_euclid(ELEMS_PER_SEGMENT);
        monotonic &= n == 0 || s >= segments[n - 1];
        segments[n] = s;
        n += 1;
    }
    let live = &mut segments[..n];
    // Row-major stencil access is monotonically non-decreasing per warp, so
    // the common case skips the sort; distinct-counting is order-identical.
    if !monotonic {
        live.sort_unstable();
    }
    let mut distinct = 0u64;
    let mut prev = None;
    for &s in live.iter() {
        if prev != Some(s) {
            distinct += 1;
            prev = Some(s);
        }
    }
    distinct
}

/// Distinct 128-byte segments touched by a full warp of validated element
/// addresses. This is the counting half of the decoded engine's fused
/// validate+coalesce path, shared with trace replay so a recomputed
/// transaction count can never diverge from the recorded one: same
/// monotonic sort-skip, same distinct-run count as
/// [`transactions_for_warp_fixed`] over 32 active lanes.
pub fn segment_count_full(addrs: &[i64; 32]) -> u64 {
    const ELEMS_PER_SEGMENT: i64 = 32;
    let mut segs = [0i64; 32];
    for l in 0..32 {
        segs[l] = addrs[l].div_euclid(ELEMS_PER_SEGMENT);
    }
    let mut monotonic = true;
    for l in 1..32 {
        monotonic &= segs[l] >= segs[l - 1];
    }
    if !monotonic {
        segs.sort_unstable();
    }
    let mut tx = 1u64;
    for l in 1..32 {
        tx += (segs[l] != segs[l - 1]) as u64;
    }
    tx
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_f32_and_i32() {
        let b = DeviceBuffer::from_f32(&[1.5, -2.25, 0.0]);
        assert_eq!(b.len(), 3);
        assert_eq!(b.to_f32(), vec![1.5, -2.25, 0.0]);
        let b = DeviceBuffer::from_i32(&[-1, 7]);
        assert_eq!(b.to_i32(), vec![-1, 7]);
    }

    #[test]
    fn row_upload_and_consuming_download_match_the_copying_forms() {
        // Rows of a strided 3x2 image (stride 4): padding never uploads.
        let raw = [1.5f32, -0.0, f32::NAN, 9.0, 4.0, 5.0, 6.0, 9.0];
        let b = DeviceBuffer::from_f32_rows(raw.chunks(4).map(|r| &r[..3]));
        let packed = [1.5f32, -0.0, f32::NAN, 4.0, 5.0, 6.0];
        assert_eq!(b, DeviceBuffer::from_f32(&packed));
        assert_eq!(b.bits.capacity(), packed.len(), "allocated once, exactly");
        let bits = |v: Vec<f32>| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(b.clone().into_f32()), bits(b.to_f32()));
    }

    #[test]
    fn bits_access() {
        let mut b = DeviceBuffer::zeroed(4);
        assert!(!b.is_empty());
        b.store_bits(2, 1.0f32.to_bits());
        assert_eq!(b.load_bits(2), 0x3F80_0000);
        assert_eq!(b.to_f32()[2], 1.0);
    }

    #[test]
    fn fully_coalesced_row_is_one_transaction() {
        let addrs: Vec<Option<i64>> = (0..32).map(|i| Some(i as i64)).collect();
        assert_eq!(transactions_for_warp(&addrs), 1);
    }

    #[test]
    fn misaligned_row_spans_two_segments() {
        let addrs: Vec<Option<i64>> = (0..32).map(|i| Some(i as i64 + 16)).collect();
        assert_eq!(transactions_for_warp(&addrs), 2);
    }

    #[test]
    fn column_access_is_fully_scattered() {
        // Stride = one 4096-wide image row: every lane in its own segment.
        let addrs: Vec<Option<i64>> = (0..32).map(|i| Some(i as i64 * 4096)).collect();
        assert_eq!(transactions_for_warp(&addrs), 32);
    }

    #[test]
    fn inactive_lanes_cost_nothing() {
        let mut addrs: Vec<Option<i64>> = vec![None; 32];
        assert_eq!(transactions_for_warp(&addrs), 0);
        addrs[5] = Some(100);
        assert_eq!(transactions_for_warp(&addrs), 1);
    }

    #[test]
    fn broadcast_access_is_one_transaction() {
        let addrs: Vec<Option<i64>> = (0..32).map(|_| Some(77)).collect();
        assert_eq!(transactions_for_warp(&addrs), 1);
    }

    #[test]
    fn full_segment_count_matches_reference() {
        let cases: Vec<[i64; 32]> = vec![
            std::array::from_fn(|i| i as i64),
            std::array::from_fn(|i| i as i64 + 16),
            std::array::from_fn(|i| i as i64 * 4096),
            std::array::from_fn(|_| 77),
            std::array::from_fn(|i| (31 - i) as i64 * 3),
        ];
        for addrs in &cases {
            let opts: [Option<i64>; 32] = std::array::from_fn(|i| Some(addrs[i]));
            assert_eq!(
                segment_count_full(addrs),
                transactions_for_warp(&opts),
                "{addrs:?}"
            );
        }
    }

    #[test]
    fn fixed_variant_matches_reference_counts() {
        let cases: Vec<[Option<i64>; 32]> = vec![
            std::array::from_fn(|i| Some(i as i64)),
            std::array::from_fn(|i| Some(i as i64 + 16)),
            std::array::from_fn(|i| Some(i as i64 * 4096)),
            std::array::from_fn(|_| Some(77)),
            std::array::from_fn(|i| {
                if i % 3 == 0 {
                    Some(-5 * i as i64)
                } else {
                    None
                }
            }),
            [None; 32],
        ];
        for addrs in &cases {
            assert_eq!(
                transactions_for_warp_fixed(addrs),
                transactions_for_warp(addrs),
                "{addrs:?}"
            );
        }
    }

    #[test]
    fn negative_addresses_use_euclidean_segments() {
        // Clamped-at-zero minus offsets would be negative before clamping;
        // the transaction counter itself must not panic on them (bounds
        // checking happens elsewhere).
        let addrs = vec![Some(-1i64), Some(0)];
        assert_eq!(transactions_for_warp(&addrs), 2);
    }
}

#[cfg(test)]
mod tex_tests {
    use super::*;

    #[test]
    fn clamp_mode_resolution() {
        let m = TexAddressMode::Clamp;
        assert_eq!(m.resolve(-3, 8), Some(0));
        assert_eq!(m.resolve(7, 8), Some(7));
        assert_eq!(m.resolve(11, 8), Some(7));
    }

    #[test]
    fn wrap_mode_is_periodic() {
        let m = TexAddressMode::Wrap;
        assert_eq!(m.resolve(-1, 8), Some(7));
        assert_eq!(m.resolve(8, 8), Some(0));
        assert_eq!(m.resolve(-17, 8), Some(7));
        assert_eq!(m.resolve(19, 8), Some(3));
    }

    #[test]
    fn mirror_mode_reflects_with_edges() {
        let m = TexAddressMode::Mirror;
        // Matches the software Mirror pattern: -1 -> 0, -2 -> 1, 8 -> 7.
        assert_eq!(m.resolve(-1, 8), Some(0));
        assert_eq!(m.resolve(-2, 8), Some(1));
        assert_eq!(m.resolve(8, 8), Some(7));
        assert_eq!(m.resolve(9, 8), Some(6));
        // Full period: 16 maps back to 0.
        assert_eq!(m.resolve(16, 8), Some(0));
        assert_eq!(
            m.resolve(-9, 8),
            Some(7),
            "second reflection: -9 folds to 7"
        );
    }

    #[test]
    fn border_mode_returns_fill() {
        let m = TexAddressMode::Border(0.5);
        assert_eq!(m.resolve(-1, 8), None);
        assert_eq!(m.resolve(8, 8), None);
        assert_eq!(m.resolve(3, 8), Some(3));
        assert_eq!(m.border_value(), 0.5);
        assert_eq!(TexAddressMode::Clamp.border_value(), 0.0);
    }

    #[test]
    fn in_range_is_identity_for_all_modes() {
        for m in [
            TexAddressMode::Clamp,
            TexAddressMode::Wrap,
            TexAddressMode::Mirror,
            TexAddressMode::Border(1.0),
        ] {
            for i in 0..8 {
                assert_eq!(m.resolve(i, 8), Some(i as usize));
            }
        }
    }

    #[test]
    fn texture_binding_validates_dims() {
        let b = DeviceBuffer::zeroed(12).with_texture(TexDesc {
            width: 4,
            height: 3,
            mode: TexAddressMode::Clamp,
        });
        assert_eq!(b.texture().unwrap().width, 4);
    }

    #[test]
    #[should_panic(expected = "match the allocation")]
    fn texture_binding_rejects_bad_dims() {
        let _ = DeviceBuffer::zeroed(10).with_texture(TexDesc {
            width: 4,
            height: 3,
            mode: TexAddressMode::Clamp,
        });
    }
}
