//! The video encoder: prediction, transform, quantisation, entropy coding
//! and closed-loop reconstruction.

use crate::block::{encode_block, encode_svalue, CoeffContexts};
use crate::dct;
use crate::motion::{self, MotionVector, MB_SIZE};
use crate::plane::{write_block8_into_stripe, Frame, PixelFormat, Plane};
use crate::quant::{self, DC_SCALE};
use crate::rangecoder::{BitModel, RangeEncoder};
use crate::ratecontrol::RateController;
use crate::slice::{self, Layer, SliceRows};
use livo_telemetry::{Counter, Gauge, Histogram, MetricsRegistry};
use std::sync::Arc;

/// Frame type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameType {
    /// Intra frame: self-contained, DC-predicted blocks.
    Intra,
    /// Inter frame: motion-compensated prediction from the reference (the
    /// previous reconstructed frame, or the previous T0 of a two-layer
    /// stream).
    Inter,
}

/// Motion search range in pixels per axis.
pub const SEARCH_RANGE: i16 = 8;

/// Static encoder configuration.
#[derive(Debug, Clone, Copy)]
pub struct EncoderConfig {
    pub width: usize,
    pub height: usize,
    pub format: PixelFormat,
    /// Distance between intra frames; 1 = all-intra. LiVo uses long GOPs and
    /// relies on PLI/FIR to request intra refresh after loss (§A.1).
    pub gop_length: u32,
    /// Temporal layers: 2 alternates T0, T1 from each intra on, and a T1
    /// is never a reference, so a forwarder can drop any T1 (see
    /// [`crate::slice`]); any other value is one layer. Two cost bits at
    /// equal QP, which is why a two-party call keeps 1 (EXPERIMENTS.md).
    pub temporal_layers: u8,
}

impl EncoderConfig {
    pub fn new(width: usize, height: usize, format: PixelFormat) -> Self {
        EncoderConfig {
            width,
            height,
            format,
            gop_length: 120,
            temporal_layers: 1,
        }
    }
}

/// Block-level coding statistics of one encoded frame: how many prediction
/// blocks were skipped (inter prediction matched, nothing coded) versus
/// coded (residual transmitted). Intra frames code every block.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlockCounts {
    pub skip: u64,
    pub coded: u64,
}

/// One encoded frame: the bitstream plus metadata and the encoder-side
/// reconstruction. The reconstruction is bit-exact with what the decoder
/// will produce, which is how LiVo estimates encoded quality at the sender
/// without a second decode pass (§3.3's "encode, immediately decode" comes
/// for free from the codec's closed loop).
#[derive(Debug, Clone)]
pub struct EncodedFrame {
    pub data: Vec<u8>,
    pub frame_type: FrameType,
    /// 0 (T0) or 1 (T1: nothing predicts from it).
    pub temporal_id: u8,
    pub qp: u8,
    pub reconstruction: Frame,
    /// Skip/coded block statistics (telemetry: intra/inter block counts).
    pub blocks: BlockCounts,
}

impl EncodedFrame {
    /// Size of the bitstream in bits.
    pub fn bits(&self) -> u64 {
        self.data.len() as u64 * 8
    }
}

/// Held metric handles published once per encoded frame. Handles are
/// resolved at attach time so the per-frame path never touches the
/// registry's name map (atomics only).
struct EncoderTelemetry {
    encoded_bits: Arc<Histogram>,
    budget_ratio: Arc<Histogram>,
    qp: Arc<Gauge>,
    frames_intra: Arc<Counter>,
    frames_inter: Arc<Counter>,
    blocks_skip: Arc<Counter>,
    blocks_coded: Arc<Counter>,
    bits_total: Arc<Counter>,
    scratch_reuses: Arc<Counter>,
    slice_header_bits: Arc<Counter>,
}

/// Per-encoder scratch arena: every buffer the per-frame path used to
/// allocate fresh. Reusing it turns the steady-state encode loop
/// allocation-free apart from the output bitstream and the one
/// reconstruction clone handed to the caller. Results are unaffected — each
/// buffer is fully overwritten (plans, motion field) or dimension-checked
/// and fully re-reconstructed (the work frame) before anything reads it;
/// `tests/parallel_bitexact.rs` pins bit-exactness across reuse.
struct EncoderScratch {
    /// Planned luma macroblocks of the inter path.
    luma_plans: Vec<LumaMbPlan>,
    /// Planned chroma blocks of the inter path, one arena per
    /// chroma plane (the sliced entropy pass needs U and V side by side).
    chroma_plans: [Vec<[i32; 64]>; 2],
    /// Luma motion field of the frame being encoded.
    mvs: Vec<MotionVector>,
    /// Reconstruction under construction. After the frame commits, this
    /// buffer and the previous reference frame swap roles (double buffer).
    work_recon: Frame,
}

impl Default for EncoderScratch {
    fn default() -> Self {
        EncoderScratch {
            luma_plans: Vec::new(),
            chroma_plans: [Vec::new(), Vec::new()],
            mvs: Vec::new(),
            // Zero-sized: matches no real frame, so the first encode always
            // allocates a correctly-shaped work frame.
            work_recon: Frame::new(PixelFormat::Yuv420, 0, 0),
        }
    }
}

impl EncoderScratch {
    /// Make `work_recon` a `format`/`w`×`h` frame, reusing the existing
    /// allocation when the shape already matches. Returns whether the
    /// buffer was reused. Stale contents are harmless: every pixel of the
    /// reconstruction is rewritten during the encode (intra DC prediction
    /// only ever reads pixels the current frame has already reconstructed).
    fn ensure_work_recon(&mut self, format: PixelFormat, w: usize, h: usize) -> bool {
        let r = &self.work_recon;
        if r.format == format && (r.width, r.height) == (w, h) && w > 0 {
            true
        } else {
            self.work_recon = Frame::new(format, w, h);
            false
        }
    }
}

/// The rate-adaptive encoder.
pub struct Encoder {
    cfg: EncoderConfig,
    rc: RateController,
    /// The reference: the last intra or T0 reconstruction.
    recon: Option<Frame>,
    /// The last frame's layer: its tag is the reference's.
    last: Layer,
    frame_index: u64,
    force_intra: bool,
    /// The reference's input frame, for temporal complexity estimation.
    prev_input_luma: Option<Plane>,
    telemetry: Option<EncoderTelemetry>,
    /// Reused per-frame buffers (plans, motion field, work reconstruction).
    scratch: EncoderScratch,
    /// Uncompressed header+table bits of the last `encode_with_qp` call;
    /// published as the `slice_header_bits` counter.
    last_header_bits: u64,
}

impl Encoder {
    /// Panics when the frame size does not fit the bitstream header
    /// (`width` and `height` are stored as `u16`) or exceeds what
    /// [`Decoder`](crate::Decoder) accepts.
    pub fn new(cfg: EncoderConfig) -> Self {
        for (field, v) in [("width", cfg.width), ("height", cfg.height)] {
            assert!(
                (1..=u16::MAX as usize).contains(&v),
                "EncoderConfig::{field} {v} outside 1..=65535"
            );
        }
        assert!(
            cfg.width as u64 * cfg.height as u64 <= slice::MAX_DECODE_PIXELS,
            "EncoderConfig::width x height = {} pixels exceeds the decoder's limit of {}",
            cfg.width as u64 * cfg.height as u64,
            slice::MAX_DECODE_PIXELS
        );
        Encoder {
            cfg,
            rc: RateController::new(),
            recon: None,
            last: Layer::default(),
            frame_index: 0,
            force_intra: false,
            prev_input_luma: None,
            telemetry: None,
            scratch: EncoderScratch::default(),
            last_header_bits: 0,
        }
    }

    /// Does nothing: a frame encodes on the calling thread. Encode
    /// parallelism is the sender's: `SenderStage` in `livo-core` encodes
    /// the colour and depth streams side by side. The name stays only
    /// because `benchmark/src/adapters.rs` calls it, until the benchmark's
    /// own call and SFU loops go (ROADMAP item 3). Nothing else calls it.
    pub fn set_worker_pool(&mut self, _pool: Arc<livo_runtime::WorkerPool>) {}

    /// Publish per-frame encoder metrics under `{prefix}.*` in `registry`:
    /// `encoded_bits` and `budget_ratio` histograms, the last `qp` gauge,
    /// and intra/inter frame plus skip/coded block counters.
    pub fn attach_telemetry(&mut self, registry: &Arc<MetricsRegistry>, prefix: &str) {
        self.telemetry = Some(EncoderTelemetry {
            encoded_bits: registry.histogram(&format!("{prefix}.encoded_bits")),
            budget_ratio: registry.histogram(&format!("{prefix}.budget_ratio")),
            qp: registry.gauge(&format!("{prefix}.qp")),
            frames_intra: registry.counter(&format!("{prefix}.frames_intra")),
            frames_inter: registry.counter(&format!("{prefix}.frames_inter")),
            blocks_skip: registry.counter(&format!("{prefix}.blocks_skip")),
            blocks_coded: registry.counter(&format!("{prefix}.blocks_coded")),
            bits_total: registry.counter(&format!("{prefix}.bits_total")),
            // Deliberately unprefixed: one arena-effectiveness counter for
            // the whole codec stage, shared by colour and depth encoders.
            scratch_reuses: registry.counter("codec.scratch_reuses"),
            slice_header_bits: registry.counter(&format!("{prefix}.slice_header_bits")),
        });
    }

    /// Record one encoded frame into the attached metrics, if any.
    /// `target_bits` is `None` for fixed-QP encodes (no budget to compare to).
    fn publish_frame_metrics(
        &self,
        frame_type: FrameType,
        qp: u8,
        bits: u64,
        blocks: BlockCounts,
        target_bits: Option<u64>,
    ) {
        let Some(t) = &self.telemetry else { return };
        t.encoded_bits.record(bits as f64);
        if let Some(target) = target_bits {
            t.budget_ratio.record(bits as f64 / target.max(1) as f64);
        }
        t.qp.set(qp as f64);
        match frame_type {
            FrameType::Intra => t.frames_intra.inc(),
            FrameType::Inter => t.frames_inter.inc(),
        }
        t.blocks_skip.add(blocks.skip);
        t.blocks_coded.add(blocks.coded);
        t.bits_total.add(bits);
        t.slice_header_bits.add(self.last_header_bits);
    }

    /// Force the next frame to be intra-coded (the reaction to a PLI/FIR
    /// from the transport).
    pub fn force_keyframe(&mut self) {
        self.force_intra = true;
    }

    /// Encode a frame to approximately `target_bits`. The rate controller
    /// picks QP from its model; on gross overshoot the frame is re-encoded
    /// once at a coarser QP (mirroring hardware CBR behaviour).
    pub fn encode(&mut self, frame: &Frame, target_bits: u64) -> EncodedFrame {
        assert_eq!(frame.format, self.cfg.format, "format mismatch");
        assert_eq!(
            (frame.width, frame.height),
            (self.cfg.width, self.cfg.height)
        );

        let (frame_type, layer) = self.plan_frame();
        let complexity = self.estimate_complexity(frame, frame_type);
        let mut qp = self.rc.pick_qp(frame_type, complexity, target_bits as f64);

        let (mut data, mut blocks) = self.encode_with_qp(frame, qp, frame_type, layer, false);
        let mut actual_bits = data.len() as u64 * 8;
        // One corrective re-encode on overshoot, like a CBR encoder's
        // internal re-quantisation. The motion search reads the input and
        // the reference, never the QP, so its result carries over.
        if actual_bits > target_bits + target_bits / 4 && qp + 4 <= quant::QP_MAX {
            self.rc
                .update(frame_type, complexity, actual_bits as f64, qp);
            qp = (qp + 4).min(quant::QP_MAX);
            let redo = self.encode_with_qp(frame, qp, frame_type, layer, true);
            data = redo.0;
            blocks = redo.1;
            actual_bits = data.len() as u64 * 8;
        }
        self.rc
            .update(frame_type, complexity, actual_bits as f64, qp);
        self.publish_frame_metrics(frame_type, qp, actual_bits, blocks, Some(target_bits));
        EncodedFrame {
            reconstruction: self.finish_frame(frame, layer),
            data,
            frame_type,
            temporal_id: layer.temporal_id,
            qp,
            blocks,
        }
    }

    /// Encode at a *fixed* QP, bypassing rate control — the behaviour of
    /// non-adaptive systems (the paper's LiVo-NoAdapt baseline mimics
    /// Starline's fixed quality parameters, §4.5).
    pub fn encode_fixed_qp(&mut self, frame: &Frame, qp: u8) -> EncodedFrame {
        assert_eq!(frame.format, self.cfg.format, "format mismatch");
        assert_eq!(
            (frame.width, frame.height),
            (self.cfg.width, self.cfg.height)
        );
        let (frame_type, layer) = self.plan_frame();
        let qp = qp.clamp(quant::QP_FLOOR, quant::QP_MAX);
        let (data, blocks) = self.encode_with_qp(frame, qp, frame_type, layer, false);
        self.publish_frame_metrics(frame_type, qp, data.len() as u64 * 8, blocks, None);
        EncodedFrame {
            reconstruction: self.finish_frame(frame, layer),
            data,
            frame_type,
            temporal_id: layer.temporal_id,
            qp,
            blocks,
        }
    }

    /// Intra on request, without a reference, or at a GOP boundary.
    fn next_frame_type(&self) -> FrameType {
        if self.force_intra
            || self.recon.is_none()
            || (self.cfg.gop_length > 0
                && self.frame_index.is_multiple_of(self.cfg.gop_length as u64))
        {
            FrameType::Intra
        } else {
            FrameType::Inter
        }
    }

    /// The temporal id the next encoded frame will carry.
    pub fn next_temporal_id(&self) -> u8 {
        let t1 = self.cfg.temporal_layers == 2 && self.last.is_t0();
        u8::from(t1 && self.next_frame_type() == FrameType::Inter)
    }

    /// The next frame's type and layer; consumes a keyframe request. An
    /// intra is a T0 that follows tag 0 (a two-layer one carries tag 1) and
    /// restarts the T0, T1 pattern.
    fn plan_frame(&mut self) -> (FrameType, Layer) {
        let (frame_type, temporal_id) = (self.next_frame_type(), self.next_temporal_id());
        self.force_intra = false;
        let ref_tag = self.last.tag && frame_type == FrameType::Inter;
        let layered = self.cfg.temporal_layers == 2;
        (frame_type, Layer::following(temporal_id, ref_tag, layered))
    }

    /// After the final encode pass of a frame: a reference becomes the
    /// next frame's prediction source (and complexity baseline); a T1
    /// leaves both as they were. Returns the caller's reconstruction.
    fn finish_frame(&mut self, frame: &Frame, layer: Layer) -> Frame {
        self.frame_index += 1;
        self.last = layer;
        if !layer.is_t0() {
            return self.scratch.work_recon.clone();
        }
        self.store_prev_luma(frame);
        self.commit_reconstruction()
    }

    /// Remember this frame's luma for temporal complexity estimation,
    /// reusing the previous buffer when the resolution is unchanged.
    fn store_prev_luma(&mut self, frame: &Frame) {
        let luma = &frame.planes[0];
        match &mut self.prev_input_luma {
            Some(p) if (p.width, p.height) == (luma.width, luma.height) => {
                p.data.copy_from_slice(&luma.data);
            }
            slot => *slot = Some(luma.clone()),
        }
    }

    /// Rotate the reconstruction double buffer after the final encode pass
    /// of a frame: the work frame becomes the prediction reference, and the
    /// outgoing reference's allocation becomes the next frame's workspace.
    /// Returns the caller's copy of the reconstruction (the one clone the
    /// per-frame path still makes).
    fn commit_reconstruction(&mut self) -> Frame {
        let recycled = self
            .recon
            .take()
            .unwrap_or_else(|| Frame::new(self.cfg.format, 0, 0));
        let recon = std::mem::replace(&mut self.scratch.work_recon, recycled);
        self.recon = Some(recon.clone());
        recon
    }

    /// Complexity proxy driving the rate model: per-pixel activity (temporal
    /// mean-absolute difference for inter frames, spatial gradient energy for
    /// intra) scaled by the pixel count, so the model is resolution-aware.
    fn estimate_complexity(&self, frame: &Frame, frame_type: FrameType) -> f64 {
        let luma = &frame.planes[0];
        let activity = match (frame_type, &self.prev_input_luma) {
            (FrameType::Inter, Some(prev))
                if (prev.width, prev.height) == (luma.width, luma.height) =>
            {
                luma.mad(prev) + 0.05
            }
            _ => {
                // Mean absolute horizontal gradient, subsampled.
                let mut acc = 0u64;
                let mut n = 0u64;
                let step = (luma.height / 256).max(1);
                for y in (0..luma.height).step_by(step) {
                    for x in 1..luma.width {
                        acc += (luma.get(x, y) as i64 - luma.get(x - 1, y) as i64).unsigned_abs();
                        n += 1;
                    }
                }
                acc as f64 / n.max(1) as f64 + 0.05
            }
        };
        activity * luma.data.len() as f64
    }

    /// Deterministically encode `frame` at the given QP into the scratch
    /// work frame, returning the bitstream and the skip/coded block
    /// statistics. The reconstruction is left in `self.scratch.work_recon`
    /// for [`Encoder::finish_frame`].
    ///
    /// The frame is partitioned into [`slice::slice_count`] slices (see
    /// [`crate::slice`]). Inter frames are planned per macroblock row, then
    /// the entropy stage runs one independent range coder per slice, one
    /// slice after another, and the frame is assembled as header + length
    /// table + concatenated payloads.
    ///
    /// `searched` says the scratch plans hold this frame's motion field and
    /// SADs from an earlier pass at another QP, which an inter frame then
    /// starts from instead of searching again.
    fn encode_with_qp(
        &mut self,
        frame: &Frame,
        qp: u8,
        frame_type: FrameType,
        layer: Layer,
        searched: bool,
    ) -> (Vec<u8>, BlockCounts) {
        let n_slices = slice::slice_count(frame.height);
        let slices = slice::partition(frame.format, frame.height, n_slices);
        let mut scratch = std::mem::take(&mut self.scratch);
        if scratch.ensure_work_recon(frame.format, frame.width, frame.height) {
            if let Some(t) = &self.telemetry {
                t.scratch_reuses.inc();
            }
        }
        let peak = frame.format.peak_value();
        let payloads: Vec<(Vec<u8>, BlockCounts)> = match frame_type {
            FrameType::Intra => {
                // Each slice intra-codes its stripe of every plane with
                // slice-local DC prediction, so slices are fully
                // independent on both sides.
                let mut per_plane: Vec<std::vec::IntoIter<&mut [u16]>> = scratch
                    .work_recon
                    .planes
                    .iter_mut()
                    .enumerate()
                    .map(|(pi, p)| {
                        let rows: Vec<(usize, usize)> =
                            slices.iter().map(|sr| sr.plane_rows(pi)).collect();
                        slice::split_plane_rows(&mut p.data, p.width, &rows).into_iter()
                    })
                    .collect();
                slices
                    .iter()
                    .map(|sr| {
                        let mut stripes: Vec<&mut [u16]> =
                            per_plane.iter_mut().map(|it| it.next().unwrap()).collect();
                        encode_intra_slice(frame, sr, &mut stripes, qp, peak)
                    })
                    .collect()
            }
            FrameType::Inter => {
                let prev = self.recon.as_ref().expect("inter frame without reference");
                let recon = &mut scratch.work_recon;
                let step = quant::qstep(plane_qp(qp, 0, frame.format));
                plan_plane_inter_luma(
                    &frame.planes[0],
                    &prev.planes[0],
                    &mut recon.planes[0],
                    step,
                    peak,
                    (!searched).then_some(SEARCH_RANGE),
                    &mut scratch.luma_plans,
                );
                scratch.mvs.clear();
                scratch.mvs.extend(scratch.luma_plans.iter().map(|p| p.mv));
                for pi in 1..frame.planes.len() {
                    let cstep = quant::qstep(plane_qp(qp, pi, frame.format));
                    plan_plane_inter_chroma(
                        &frame.planes[pi],
                        &prev.planes[pi],
                        &mut recon.planes[pi],
                        cstep,
                        peak,
                        &scratch.mvs,
                        frame.planes[0].width,
                        &mut scratch.chroma_plans[pi - 1],
                    );
                }
                let mbs_x = frame.planes[0].width.div_ceil(MB_SIZE);
                let n_planes = frame.planes.len();
                slices
                    .iter()
                    .map(|sr| {
                        let (luma, chroma) = (&scratch.luma_plans, &scratch.chroma_plans);
                        entropy_inter_slice(sr, luma, chroma, mbs_x, n_planes)
                    })
                    .collect()
            }
        };

        let lens: Vec<usize> = payloads.iter().map(|(p, _)| p.len()).collect();
        let header = slice::write_header(
            frame_type,
            layer,
            frame.format,
            qp,
            frame.width,
            frame.height,
            &lens,
        );
        self.last_header_bits = header.len() as u64 * 8;
        let mut data = header;
        data.reserve(lens.iter().sum());
        let mut counts = BlockCounts::default();
        for (payload, c) in &payloads {
            data.extend_from_slice(payload);
            counts.skip += c.skip;
            counts.coded += c.coded;
        }
        self.scratch = scratch;
        (data, counts)
    }
}

/// Intra-code one slice: its stripe of every plane, plane-major, with
/// slice-local DC prediction and fresh contexts.
fn encode_intra_slice(
    frame: &Frame,
    sr: &SliceRows,
    stripes: &mut [&mut [u16]],
    qp: u8,
    peak: u16,
) -> (Vec<u8>, BlockCounts) {
    let mut counts = BlockCounts::default();
    let mut enc = RangeEncoder::new();
    let mut blk = [0i32; 64];
    for (pi, stripe) in stripes.iter_mut().enumerate() {
        let plane = &frame.planes[pi];
        let step = quant::qstep(plane_qp(qp, pi, frame.format));
        let (r0, r1) = sr.plane_rows(pi);
        let mut ctx = CoeffContexts::new();
        for by in (r0..r1).step_by(8) {
            for bx in (0..plane.width).step_by(8) {
                counts.coded += 1;
                plane.read_block8(bx, by, &mut blk);
                let pred = slice::intra_dc_pred_stripe(stripe, plane.width, r0, bx, by, peak);
                for v in &mut blk {
                    *v -= pred;
                }
                let coeffs = dct::forward(&blk);
                let levels = quant::quantize_block(&coeffs, step, DC_SCALE);
                encode_block(&mut enc, &mut ctx, &levels);
                let deq = quant::dequantize_block(&levels, step, DC_SCALE);
                let mut rec = dct::inverse(&deq);
                for v in &mut rec {
                    *v += pred;
                }
                write_block8_into_stripe(stripe, plane.width, r0, bx, by, &rec, peak);
            }
        }
    }
    (enc.finish(), counts)
}

/// Entropy-code one slice of a planned inter frame: its luma macroblock
/// rows, then each chroma plane's matching block rows, with fresh per-plane
/// contexts (the mirror of the decoder's slice walk).
fn entropy_inter_slice(
    sr: &SliceRows,
    luma_plans: &[LumaMbPlan],
    chroma_plans: &[Vec<[i32; 64]>; 2],
    mbs_x: usize,
    n_planes: usize,
) -> (Vec<u8>, BlockCounts) {
    let mut counts = BlockCounts::default();
    let mut enc = RangeEncoder::new();
    let mut coeff = CoeffContexts::new();
    let mut skip_model = BitModel::new();
    for plan in &luma_plans[sr.mb0 * mbs_x..sr.mb1 * mbs_x] {
        if plan.skip {
            counts.skip += 1;
        } else {
            counts.coded += 1;
        }
        enc.encode_bit(&mut skip_model, plan.skip);
        if !plan.skip {
            encode_svalue(&mut enc, (plan.mv.dx - plan.pred_mv.dx) as i32);
            encode_svalue(&mut enc, (plan.mv.dy - plan.pred_mv.dy) as i32);
            for levels in &plan.levels4 {
                encode_block(&mut enc, &mut coeff, levels);
            }
        }
    }
    // Chroma block rows correspond 1:1 to luma macroblock rows (and chroma
    // blocks-per-row to mbs_x), so the same row range indexes the plans.
    for plans in chroma_plans.iter().take(n_planes.saturating_sub(1)) {
        let mut cctx = CoeffContexts::new();
        let end = (sr.mb1 * mbs_x).min(plans.len());
        for levels in &plans[sr.mb0 * mbs_x..end] {
            counts.coded += 1;
            encode_block(&mut enc, &mut cctx, levels);
        }
    }
    (enc.finish(), counts)
}

/// QP used for plane `pi`: chroma planes are coded 4 QP coarser (they carry
/// less perceptual weight), matching common codec practice.
pub(crate) fn plane_qp(qp: u8, pi: usize, format: PixelFormat) -> u8 {
    if pi == 0 || format == PixelFormat::Y16 {
        qp
    } else {
        (qp + 4).min(quant::QP_MAX)
    }
}

/// Add the dequantised, inverse-transformed residual of `levels` onto the
/// prediction held in `rec` — the closed loop's one reconstruction step,
/// shared with the decoder. Blocks without a level leave it out: the inverse
/// transform of zeros is zero. The add wraps, because the decoder calls this
/// with whatever levels a corrupt stream holds; the caller's write clamps.
pub(crate) fn add_residual(rec: &mut [i32; 64], levels: &[i32; 64], step: f32) {
    let deq = quant::dequantize_block(levels, step, DC_SCALE);
    let res = dct::inverse(&deq);
    for (r, v) in rec.iter_mut().zip(&res) {
        *r = r.wrapping_add(*v);
    }
}

/// Everything the entropy pass needs to replay one luma macroblock: the
/// chosen and predicted motion vectors, the skip decision, and the four
/// quantised 8×8 coefficient blocks. Produced row by row, consumed per
/// slice in raster order.
#[derive(Clone)]
struct LumaMbPlan {
    mv: MotionVector,
    pred_mv: MotionVector,
    /// SAD of `mv`: with it, a second pass at another QP needs no search.
    sad: u64,
    skip: bool,
    levels4: [[i32; 64]; 4],
}

impl Default for LumaMbPlan {
    fn default() -> Self {
        LumaMbPlan {
            mv: MotionVector::default(),
            pred_mv: MotionVector::default(),
            sad: 0,
            skip: false,
            levels4: [[0; 64]; 4],
        }
    }
}

/// Plan phase for an inter luma plane, one macroblock row after another:
/// motion search, residual DCT + quantisation, the skip decision, and
/// closed-loop reconstruction into that row's 16-pixel stripe of `recon`.
/// Rows are independent by construction — the motion predictor is the
/// *left* neighbour only, and prediction reads `prev`, which is immutable
/// during the frame. `plans` is a reused scratch vector; every element the
/// entropy pass reads is overwritten first (it does not read the levels of
/// a skipped macroblock). `search_range` is `None` on a frame's second
/// pass, which keeps the vectors and SADs the first one left in `plans`.
fn plan_plane_inter_luma(
    plane: &Plane,
    prev: &Plane,
    recon: &mut Plane,
    step: f32,
    peak: u16,
    search_range: Option<i16>,
    plans: &mut Vec<LumaMbPlan>,
) {
    let mbs_x = plane.width.div_ceil(MB_SIZE);
    let mbs_y = plane.height.div_ceil(MB_SIZE);
    plans.resize(mbs_x * mbs_y, LumaMbPlan::default());
    let rows = plans
        .chunks_mut(mbs_x)
        .zip(recon.data.chunks_mut(plane.width * MB_SIZE));
    for (mby, (plan_row, stripe)) in rows.enumerate() {
        plan_luma_row(plane, prev, plan_row, stripe, mby, step, peak, search_range);
    }
}

/// Plan one macroblock row (see [`plan_plane_inter_luma`]). `stripe` is the
/// row's slice of the reconstruction plane, starting at plane row
/// `mby * MB_SIZE`.
///
/// A macroblock whose search ends on SAD 0 with a prediction that is a
/// plain copy of reference rows ([`motion::copy_origin`]) has a zero
/// residual at every sample the transform would read — the ones past a
/// frame edge repeat in-bounds samples on both sides of the subtraction —
/// so its levels are zero without a transform and its reconstruction is
/// the reference rows themselves. Elsewhere, an 8×8 block whose levels all
/// quantise to zero reconstructs to its prediction exactly (the inverse
/// transform of zeros is zero), so only blocks with a level pay for one.
#[allow(clippy::too_many_arguments)]
fn plan_luma_row(
    plane: &Plane,
    prev: &Plane,
    plan_row: &mut [LumaMbPlan],
    stripe: &mut [u16],
    mby: usize,
    step: f32,
    peak: u16,
    search_range: Option<i16>,
) {
    let by = mby * MB_SIZE;
    let mut pred_buf = [0i32; MB_SIZE * MB_SIZE];
    let mut blk = [0i32; 64];
    let mut left_mv = MotionVector::default();
    for (mbx, plan) in plan_row.iter_mut().enumerate() {
        let bx = mbx * MB_SIZE;
        let pred_mv = if mbx > 0 {
            left_mv
        } else {
            MotionVector::default()
        };
        if let Some(range) = search_range {
            (plan.mv, plan.sad) = motion::diamond_search(plane, prev, bx, by, pred_mv, range);
            plan.pred_mv = pred_mv;
        }
        let (mv, best_sad) = (plan.mv, plan.sad);
        left_mv = mv;
        if best_sad == 0 {
            if let Some(origin) = motion::copy_origin(prev, bx, by, mv, MB_SIZE) {
                plan.skip = mv == pred_mv;
                if !plan.skip {
                    // A skipped plan's levels are never read.
                    plan.levels4 = [[0; 64]; 4];
                }
                motion::copy_block_into_stripe(stripe, by, bx, by, prev, origin, MB_SIZE);
                continue;
            }
        }
        motion::predict_block(prev, bx, by, mv, &mut pred_buf);

        let mut coded = [false; 4];
        for (sb, levels) in plan.levels4.iter_mut().enumerate() {
            let ox = (sb % 2) * 8;
            let oy = (sb / 2) * 8;
            plane.read_block8(bx + ox, by + oy, &mut blk);
            for (dy, row) in blk.chunks_exact_mut(8).enumerate() {
                for (r, p) in row.iter_mut().zip(&pred_buf[(oy + dy) * MB_SIZE + ox..]) {
                    *r -= p;
                }
            }
            let coeffs = dct::forward(&blk);
            *levels = quant::quantize_block(&coeffs, step, DC_SCALE);
            coded[sb] = levels.iter().any(|&l| l != 0);
        }
        plan.skip = coded == [false; 4] && mv == pred_mv;

        for (sb, levels) in plan.levels4.iter().enumerate() {
            let ox = (sb % 2) * 8;
            let oy = (sb / 2) * 8;
            let mut rec = [0i32; 64];
            for dy in 0..8 {
                rec[dy * 8..][..8].copy_from_slice(&pred_buf[(oy + dy) * MB_SIZE + ox..][..8]);
            }
            if coded[sb] {
                add_residual(&mut rec, levels, step);
            }
            write_block8_into_stripe(stripe, plane.width, by, bx + ox, by + oy, &rec, peak);
        }
    }
}

/// Plan phase for an inter chroma plane, one 8-pixel block row after
/// another: the motion-compensated residual levels (from the halved luma
/// motion field) and the reconstruction into that row's stripe.
#[allow(clippy::too_many_arguments)]
fn plan_plane_inter_chroma(
    plane: &Plane,
    prev: &Plane,
    recon: &mut Plane,
    step: f32,
    peak: u16,
    luma_mvs: &[MotionVector],
    luma_width: usize,
    plans: &mut Vec<[i32; 64]>,
) {
    let blocks_x = plane.width.div_ceil(8);
    let blocks_y = plane.height.div_ceil(8);
    let mbs_x = luma_width.div_ceil(MB_SIZE);
    plans.resize(blocks_x * blocks_y, [0i32; 64]);
    let rows = plans
        .chunks_mut(blocks_x)
        .zip(recon.data.chunks_mut(plane.width * 8));
    for (row, (plan_row, stripe)) in rows.enumerate() {
        plan_chroma_row(
            plane, prev, plan_row, stripe, row, step, peak, luma_mvs, mbs_x,
        );
    }
}

/// Plan one chroma block row (see [`plan_plane_inter_chroma`]). `stripe` is
/// the row's slice of the reconstruction plane, starting at plane row
/// `row * 8`. Zero residuals and all-zero levels take the short ways out
/// described on [`plan_luma_row`].
#[allow(clippy::too_many_arguments)]
fn plan_chroma_row(
    plane: &Plane,
    prev: &Plane,
    plan_row: &mut [[i32; 64]],
    stripe: &mut [u16],
    row: usize,
    step: f32,
    peak: u16,
    luma_mvs: &[MotionVector],
    mbs_x: usize,
) {
    let by = row * 8;
    let width = plane.width;
    let mut blk = [0i32; 64];
    let mut pred = [0i32; 64];
    for (bxi, levels_out) in plan_row.iter_mut().enumerate() {
        let bx = bxi * 8;
        let mb_index = (by / 8) * mbs_x + (bx / 8);
        let mv = luma_mvs.get(mb_index).copied().unwrap_or_default();
        let cmv = MotionVector {
            dx: mv.dx / 2,
            dy: mv.dy / 2,
        };
        if let Some(origin) = motion::copy_origin(prev, bx, by, cmv, 8) {
            let cols = 8.min(width - bx);
            let rows = 8.min(plane.height - by);
            let same = (0..rows).all(|dy| {
                plane.data[(by + dy) * width + bx..][..cols]
                    == prev.data[(origin.1 + dy) * width + origin.0..][..cols]
            });
            if same {
                *levels_out = [0; 64];
                motion::copy_block_into_stripe(stripe, by, bx, by, prev, origin, 8);
                continue;
            }
        }
        plane.read_block8(bx, by, &mut blk);
        prev.read_block8_at(
            bx as isize + cmv.dx as isize,
            by as isize + cmv.dy as isize,
            &mut pred,
        );
        for (r, p) in blk.iter_mut().zip(&pred) {
            *r -= p;
        }
        let coeffs = dct::forward(&blk);
        *levels_out = quant::quantize_block(&coeffs, step, DC_SCALE);
        let mut rec = pred;
        if levels_out.iter().any(|&l| l != 0) {
            add_residual(&mut rec, levels_out, step);
        }
        write_block8_into_stripe(stripe, width, by, bx, by, &rec, peak);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_frame(w: usize, h: usize, phase: usize) -> Frame {
        let mut rgb = vec![0u8; w * h * 3];
        for y in 0..h {
            for x in 0..w {
                let i = (y * w + x) * 3;
                rgb[i] = (((x + phase) * 5) % 256) as u8;
                rgb[i + 1] = ((y * 3 + phase) % 256) as u8;
                rgb[i + 2] = (((x + y) * 2) % 256) as u8;
            }
        }
        Frame::from_rgb8(w, h, &rgb)
    }

    #[test]
    #[should_panic(expected = "EncoderConfig::width 0 outside")]
    fn zero_width_is_rejected() {
        Encoder::new(EncoderConfig::new(0, 64, PixelFormat::Yuv420));
    }

    #[test]
    #[should_panic(expected = "EncoderConfig::width 65536 outside")]
    fn width_beyond_the_header_field_is_rejected() {
        Encoder::new(EncoderConfig::new(65_536, 16, PixelFormat::Yuv420));
    }

    #[test]
    #[should_panic(expected = "EncoderConfig::height 65536 outside")]
    fn height_beyond_the_header_field_is_rejected() {
        Encoder::new(EncoderConfig::new(16, 65_536, PixelFormat::Y16));
    }

    #[test]
    #[should_panic(expected = "exceeds the decoder's limit")]
    fn pixel_count_beyond_the_decoder_limit_is_rejected() {
        // Both sides fit the u16 header fields; the product does not fit
        // what `Decoder` accepts.
        Encoder::new(EncoderConfig::new(8192, 8192, PixelFormat::Y16));
    }

    #[test]
    fn largest_decodable_frame_size_is_accepted() {
        Encoder::new(EncoderConfig::new(65_535, 512, PixelFormat::Y16));
    }

    #[test]
    fn first_frame_is_intra() {
        let mut enc = Encoder::new(EncoderConfig::new(64, 64, PixelFormat::Yuv420));
        let out = enc.encode(&test_frame(64, 64, 0), 100_000);
        assert_eq!(out.frame_type, FrameType::Intra);
    }

    #[test]
    fn second_frame_is_inter() {
        let mut enc = Encoder::new(EncoderConfig::new(64, 64, PixelFormat::Yuv420));
        enc.encode(&test_frame(64, 64, 0), 100_000);
        let out = enc.encode(&test_frame(64, 64, 1), 100_000);
        assert_eq!(out.frame_type, FrameType::Inter);
    }

    #[test]
    fn force_keyframe_produces_intra() {
        let mut enc = Encoder::new(EncoderConfig::new(64, 64, PixelFormat::Yuv420));
        enc.encode(&test_frame(64, 64, 0), 100_000);
        enc.force_keyframe();
        let out = enc.encode(&test_frame(64, 64, 1), 100_000);
        assert_eq!(out.frame_type, FrameType::Intra);
    }

    #[test]
    fn static_content_costs_little_in_p_frames() {
        let mut enc = Encoder::new(EncoderConfig::new(128, 128, PixelFormat::Yuv420));
        let f = test_frame(128, 128, 0);
        let i_frame = enc.encode(&f, 1_000_000);
        let p_frame = enc.encode(&f, 1_000_000);
        assert!(
            p_frame.bits() < i_frame.bits() / 10,
            "I: {} bits, P: {} bits",
            i_frame.bits(),
            p_frame.bits()
        );
    }

    #[test]
    fn reconstruction_improves_with_more_bits() {
        let f = test_frame(64, 64, 0);
        let mut enc_lo = Encoder::new(EncoderConfig::new(64, 64, PixelFormat::Yuv420));
        let mut enc_hi = Encoder::new(EncoderConfig::new(64, 64, PixelFormat::Yuv420));
        let lo = enc_lo.encode(&f, 3_000);
        let hi = enc_hi.encode(&f, 300_000);
        let err_lo = crate::luma_mse(&f, &lo.reconstruction);
        let err_hi = crate::luma_mse(&f, &hi.reconstruction);
        assert!(err_hi < err_lo, "hi {err_hi} vs lo {err_lo}");
        assert!(lo.qp > hi.qp);
    }

    #[test]
    fn intra_frames_code_every_block() {
        let mut enc = Encoder::new(EncoderConfig::new(64, 64, PixelFormat::Yuv420));
        let out = enc.encode(&test_frame(64, 64, 0), 100_000);
        // 64×64 luma = 64 blocks of 8×8, plus two 32×32 chroma planes of
        // 16 blocks each.
        assert_eq!(
            out.blocks,
            BlockCounts {
                skip: 0,
                coded: 64 + 16 + 16
            }
        );
    }

    #[test]
    fn static_inter_frames_mostly_skip() {
        let mut enc = Encoder::new(EncoderConfig::new(128, 128, PixelFormat::Yuv420));
        let f = test_frame(128, 128, 0);
        enc.encode(&f, 1_000_000);
        let p = enc.encode(&f, 1_000_000);
        assert_eq!(p.frame_type, FrameType::Inter);
        assert!(
            p.blocks.skip > 0,
            "static content should produce skip blocks"
        );
        let coded_fraction = p.blocks.coded as f64 / (p.blocks.skip + p.blocks.coded) as f64;
        assert!(coded_fraction < 0.9, "coded fraction {coded_fraction}");
    }

    #[test]
    fn second_pass_on_the_kept_motion_field_matches_a_fresh_search() {
        // Content that moves, so vectors and SADs are not all zero, on a
        // frame with partial macroblocks; two encoders in the same state.
        let (w, h) = (72, 56);
        let cfg = EncoderConfig::new(w, h, PixelFormat::Yuv420);
        let (mut kept, mut fresh) = (Encoder::new(cfg), Encoder::new(cfg));
        for enc in [&mut kept, &mut fresh] {
            enc.encode_fixed_qp(&test_frame(w, h, 0), 20);
        }
        // The picture three samples on, with grain the vectors cannot explain.
        let mut frame = test_frame(w, h, 3);
        for (i, v) in frame.planes[0].data.iter_mut().enumerate() {
            *v ^= (i * 7 % 13) as u16;
        }
        // A budget far under what the first pass will spend forces the second.
        let target = 3_000;
        let complexity = kept.estimate_complexity(&frame, FrameType::Inter);
        let first_qp = kept.rc.pick_qp(FrameType::Inter, complexity, target as f64);
        let out = kept.encode(&frame, target);
        assert_eq!(out.qp, first_qp + 4, "the frame took two passes");
        assert!(
            kept.scratch.luma_plans.iter().any(|p| p.sad > 0)
                && kept
                    .scratch
                    .mvs
                    .iter()
                    .any(|&mv| mv != MotionVector::default()),
            "the search had something to find"
        );
        let want = fresh.encode_fixed_qp(&frame, out.qp);
        assert_eq!(out.data, want.data);
        assert_eq!(out.reconstruction, want.reconstruction);
        assert_eq!(out.blocks, want.blocks);
    }

    #[test]
    fn attached_telemetry_sees_frames() {
        let registry = Arc::new(MetricsRegistry::new());
        let mut enc = Encoder::new(EncoderConfig::new(64, 64, PixelFormat::Yuv420));
        enc.attach_telemetry(&registry, "codec.color");
        enc.encode(&test_frame(64, 64, 0), 100_000);
        enc.encode(&test_frame(64, 64, 1), 100_000);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("codec.color.frames_intra"), Some(1));
        assert_eq!(snap.counter("codec.color.frames_inter"), Some(1));
        let bits = snap
            .histogram("codec.color.encoded_bits")
            .expect("bits histogram");
        assert_eq!(bits.count, 2);
        assert!(snap.counter("codec.color.bits_total").unwrap() > 0);
        assert!(snap.gauge("codec.color.qp").unwrap() > 0.0);
    }

    #[test]
    fn y16_frames_encode() {
        let samples: Vec<u16> = (0..64usize * 64)
            .map(|i| ((i * 997) % 65536) as u16)
            .collect();
        let f = Frame::from_y16(64, 64, samples);
        let mut enc = Encoder::new(EncoderConfig::new(64, 64, PixelFormat::Y16));
        let out = enc.encode(&f, 200_000);
        assert!(!out.data.is_empty());
        assert_eq!(out.reconstruction.format, PixelFormat::Y16);
    }
}
