//! Wait-attribution tracing: fixed-size span records in a lock-free
//! overwrite-oldest ring, with deterministic 1-in-N request sampling.
//!
//! The metrics registry says *that* p99 moved; spans say *why*. Every
//! sampled client request is decomposed into the paper's wait phases —
//!
//! * **broadcast** — the wait the broadcast itself imposes: from the
//!   request to the page's next airing on the channel the client is
//!   already tuned to (zero on a cache hit);
//! * **switch** — the extra wait a cross-channel retune adds: from the
//!   no-switch arrival to the arrival reachable after the switch penalty;
//! * **loss** — the extra wait loss recovery adds: from the expected
//!   arrival to the periodic airing the client would have fallen back to;
//! * **credit** — the slots coded repair handed back: from the actual
//!   (decoded) receive time to that fallback periodic airing.
//!
//! The four phases telescope, so the **conservation invariant**
//!
//! ```text
//! broadcast + switch + loss − credit == total response time
//! ```
//!
//! holds *exactly* (bit-exact, not approximately): every anchor is a time
//! on the integer slot lattice, far below 2^53, so the f64 differences and
//! sums are exact. [`record_request`] asserts it on every span.
//!
//! The broker side records [`SpanKind::Stage`] spans for sampled slots:
//! tick deadline jitter, frame encode, transport enqueue, and writev
//! drain, all in microseconds.
//!
//! Discipline matches the event [`journal`](mod@crate::journal): writers never
//! block and never allocate (one `fetch_add` to claim a sequence, a
//! seqlock commit word around the field stores), the ring overwrites the
//! oldest spans, and readers are told exactly how many they missed. The
//! sampling knob ([`set_sample_every`]) is the master switch: at the
//! default `0` the hot-path cost is a single relaxed load.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Default span ring capacity (spans). Power of two.
pub const DEFAULT_SPAN_CAPACITY: usize = 8192;

/// Number of phase slots in a span (request: broadcast/switch/loss/credit;
/// stage: jitter/encode/enqueue/drain).
pub const SPAN_PHASES: usize = 4;

/// What a span measures. Discriminants are stable (serialized by number).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum SpanKind {
    /// One sampled client request: `client` is the client's seed, `index`
    /// its measured-request index, `total` the recorded response time in
    /// broadcast units, `phases` = `[broadcast, switch, loss, credit]`.
    Request = 0,
    /// One sampled broker slot: `client` is 0, `index` the slot sequence,
    /// `phases` = `[jitter, encode, enqueue, drain]` in microseconds and
    /// `total` their sum.
    Stage = 1,
}

impl SpanKind {
    /// Stable lower-snake name (used in JSON output).
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Request => "request",
            SpanKind::Stage => "stage",
        }
    }

    /// The kind for a stable wire discriminant, if `v` is one.
    pub fn from_u8(v: u8) -> Option<Self> {
        match v {
            0 => Some(SpanKind::Request),
            1 => Some(SpanKind::Stage),
            _ => None,
        }
    }
}

/// One wait-attribution span (see [`SpanKind`] for field meanings).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Monotone sequence number assigned at record time.
    pub seq: u64,
    /// What this span measures.
    pub kind: SpanKind,
    /// Request spans: the client's seed. Stage spans: 0.
    pub client: u64,
    /// Request spans: measured-request index. Stage spans: slot sequence.
    pub index: u64,
    /// Request spans: recorded response time (broadcast units). Stage
    /// spans: the sum of the stage timers (microseconds).
    pub total: f64,
    /// The four phase durations (see [`SpanKind`]).
    pub phases: [f64; SPAN_PHASES],
}

impl Span {
    /// The signed phase sum that conservation compares against `total`:
    /// `broadcast + switch + loss − credit` for request spans, the plain
    /// sum for stage spans.
    pub fn phase_sum(&self) -> f64 {
        match self.kind {
            SpanKind::Request => self.phases[0] + self.phases[1] + self.phases[2] - self.phases[3],
            SpanKind::Stage => self.phases.iter().sum(),
        }
    }
}

/// One ring slot. `commit` is a seqlock word: `0` = never written,
/// `u64::MAX` = write in progress, `seq + 1` = slot holds span `seq`.
/// Durations are stored as f64 bit patterns.
struct Cell {
    commit: AtomicU64,
    kind: AtomicU64,
    client: AtomicU64,
    index: AtomicU64,
    total: AtomicU64,
    phases: [AtomicU64; SPAN_PHASES],
}

/// The bounded, overwrite-oldest span ring.
pub struct SpanRing {
    cells: Box<[Cell]>,
    /// Next sequence number to assign (== total spans ever recorded).
    head: AtomicU64,
    mask: u64,
}

/// The result of a [`SpanRing::since`] read.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanBatch {
    /// Recovered spans, in sequence order.
    pub spans: Vec<Span>,
    /// Spans in `[since, head)` that the ring had already overwritten (or
    /// a concurrent writer tore the read).
    pub dropped: u64,
    /// The next sequence to pass as `since` to continue tailing.
    pub next_seq: u64,
}

impl SpanRing {
    /// A span ring with `capacity` slots, rounded up to a power of two.
    pub fn with_capacity(capacity: usize) -> Self {
        let cap = capacity.next_power_of_two().max(2);
        let cells = (0..cap)
            .map(|_| Cell {
                commit: AtomicU64::new(0),
                kind: AtomicU64::new(0),
                client: AtomicU64::new(0),
                index: AtomicU64::new(0),
                total: AtomicU64::new(0),
                phases: std::array::from_fn(|_| AtomicU64::new(0)),
            })
            .collect();
        Self {
            cells,
            head: AtomicU64::new(0),
            mask: (cap - 1) as u64,
        }
    }

    /// Records a span. Never blocks, never allocates; overwrites the
    /// oldest span when the ring is full. Returns the assigned sequence.
    #[inline]
    pub fn record(
        &self,
        kind: SpanKind,
        client: u64,
        index: u64,
        total: f64,
        phases: [f64; SPAN_PHASES],
    ) -> u64 {
        let seq = self.head.fetch_add(1, Ordering::Relaxed);
        let cell = &self.cells[(seq & self.mask) as usize];
        cell.commit.store(u64::MAX, Ordering::Release);
        cell.kind.store(kind as u64, Ordering::Relaxed);
        cell.client.store(client, Ordering::Relaxed);
        cell.index.store(index, Ordering::Relaxed);
        cell.total.store(total.to_bits(), Ordering::Relaxed);
        for (slot, phase) in cell.phases.iter().zip(phases) {
            slot.store(phase.to_bits(), Ordering::Relaxed);
        }
        cell.commit.store(seq + 1, Ordering::Release);
        seq
    }

    /// Total spans ever recorded (the next sequence number).
    pub fn head(&self) -> u64 {
        self.head.load(Ordering::Acquire)
    }

    /// Ring capacity in spans.
    pub fn capacity(&self) -> usize {
        self.cells.len()
    }

    /// Reads every span with `seq >= since` still present in the ring;
    /// overwritten and torn slots are counted in [`SpanBatch::dropped`].
    pub fn since(&self, since: u64) -> SpanBatch {
        let head = self.head.load(Ordering::Acquire);
        let cap = self.cells.len() as u64;
        let oldest = head.saturating_sub(cap);
        let start = since.max(oldest);
        let mut dropped = start - since;
        let mut spans = Vec::with_capacity(head.saturating_sub(start) as usize);
        for seq in start..head {
            let cell = &self.cells[(seq & self.mask) as usize];
            let before = cell.commit.load(Ordering::Acquire);
            if before != seq + 1 {
                dropped += 1;
                continue;
            }
            let kind = cell.kind.load(Ordering::Relaxed);
            let client = cell.client.load(Ordering::Relaxed);
            let index = cell.index.load(Ordering::Relaxed);
            let total = f64::from_bits(cell.total.load(Ordering::Relaxed));
            let mut phases = [0.0; SPAN_PHASES];
            for (out, slot) in phases.iter_mut().zip(&cell.phases) {
                *out = f64::from_bits(slot.load(Ordering::Relaxed));
            }
            let after = cell.commit.load(Ordering::Acquire);
            if after != seq + 1 {
                dropped += 1;
                continue;
            }
            match SpanKind::from_u8(kind as u8) {
                Some(kind) => spans.push(Span {
                    seq,
                    kind,
                    client,
                    index,
                    total,
                    phases,
                }),
                None => dropped += 1,
            }
        }
        SpanBatch {
            spans,
            dropped,
            next_seq: head,
        }
    }
}

static SPANS: OnceLock<SpanRing> = OnceLock::new();

/// The process-wide span ring, materialized on first use (call this — via
/// [`set_sample_every`] — outside hot paths so the one-time allocation
/// never lands in an allocation-free section).
pub fn spans() -> &'static SpanRing {
    SPANS.get_or_init(|| SpanRing::with_capacity(DEFAULT_SPAN_CAPACITY))
}

/// 1-in-N sampling knob; `0` = tracing off (the default).
static SAMPLE_EVERY: AtomicU64 = AtomicU64::new(0);

/// Sets the deterministic sampling rate: record a span for every request
/// (or slot) whose index is a multiple of `n`; `0` turns span tracing off.
/// Turning sampling on materializes the ring outside the hot path.
pub fn set_sample_every(n: u64) {
    if n != 0 {
        let _ = spans();
    }
    SAMPLE_EVERY.store(n, Ordering::Relaxed);
}

/// The current 1-in-N sampling rate (`0` = off).
#[inline]
pub fn sample_every() -> u64 {
    SAMPLE_EVERY.load(Ordering::Relaxed)
}

/// True when the request (or slot) with this index should be traced.
/// Deterministic — a simulated client and its live twin sample the same
/// request indices, so their span sets are directly comparable. One
/// relaxed load when tracing is off.
#[inline]
pub fn sampled(index: u64) -> bool {
    let n = SAMPLE_EVERY.load(Ordering::Relaxed);
    n != 0 && index.is_multiple_of(n)
}

/// Decomposes a sampled request's wait into `[broadcast, switch, loss,
/// credit]` from its time anchors, all in broadcast units on the integer
/// slot lattice:
///
/// * `requested_at` — when the client issued the request;
/// * `no_switch` — the page's first airing had the client already been
///   tuned to its channel;
/// * `expected` — the arrival the client actually expected after any
///   cross-channel switch penalty;
/// * `next_periodic` — the periodic airing the client would have fallen
///   back to; equals `received_at` when nothing was lost or the loss was
///   repaired only by waiting (credit is then zero);
/// * `received_at` — when the request actually completed.
///
/// The phases telescope: their signed sum is exactly
/// `received_at - requested_at`.
pub fn attribute_wait(
    requested_at: f64,
    no_switch: f64,
    expected: f64,
    next_periodic: f64,
    received_at: f64,
) -> [f64; SPAN_PHASES] {
    [
        no_switch - requested_at,
        expected - no_switch,
        next_periodic - expected,
        next_periodic - received_at,
    ]
}

/// Records one sampled request span into the process ring, asserting the
/// conservation invariant: the signed phase sum must equal `total`
/// **exactly** (both sides live on the integer slot lattice, so f64
/// arithmetic on them is exact — any mismatch is an attribution bug, not
/// rounding). Returns the assigned sequence.
pub fn record_request(client: u64, index: u64, total: f64, phases: [f64; SPAN_PHASES]) -> u64 {
    let sum = phases[0] + phases[1] + phases[2] - phases[3];
    assert!(
        sum == total,
        "wait-attribution conservation violated: client {client} request {index}: \
         broadcast {} + switch {} + loss {} - credit {} = {sum} != total {total}",
        phases[0],
        phases[1],
        phases[2],
        phases[3],
    );
    spans().record(SpanKind::Request, client, index, total, phases)
}

/// Records one sampled broker slot's stage profile (`[jitter, encode,
/// enqueue, drain]`, microseconds). Returns the assigned sequence.
pub fn record_stage(slot: u64, stages: [f64; SPAN_PHASES]) -> u64 {
    let total = stages.iter().sum();
    spans().record(SpanKind::Stage, 0, slot, total, stages)
}

/// Writev-drain microseconds handed from the transport to the engine's
/// stage span (the engine composes the slot span but cannot see inside the
/// transport's flush path).
static DRAIN_MICROS: AtomicU64 = AtomicU64::new(0);

/// Adds writev-drain time to the pending stage accumulator (transport side).
#[inline]
pub fn note_drain_micros(us: u64) {
    DRAIN_MICROS.fetch_add(us, Ordering::Relaxed);
}

/// Takes (and resets) the accumulated writev-drain time (engine side).
#[inline]
pub fn take_drain_micros() -> u64 {
    DRAIN_MICROS.swap(0, Ordering::Relaxed)
}

/// The writev-drain time accumulated but not yet taken (engine side: a
/// reading before and after a transport call gives the drain inside it).
#[inline]
pub fn drain_micros() -> u64 {
    DRAIN_MICROS.load(Ordering::Relaxed)
}

/// Phase labels for request spans, in `Span::phases` order.
pub const REQUEST_PHASE_NAMES: [&str; SPAN_PHASES] = ["broadcast", "switch", "loss", "credit"];

/// Stage labels for stage spans, in `Span::phases` order.
pub const STAGE_PHASE_NAMES: [&str; SPAN_PHASES] =
    ["jitter_us", "encode_us", "enqueue_us", "drain_us"];

/// Renders one span as a JSON object (no trailing newline).
pub fn render_span_json(span: &Span) -> String {
    let names = match span.kind {
        SpanKind::Request => &REQUEST_PHASE_NAMES,
        SpanKind::Stage => &STAGE_PHASE_NAMES,
    };
    let mut out = format!(
        "{{\"seq\":{},\"kind\":\"{}\",\"client\":{},\"index\":{},\"total\":{}",
        span.seq,
        span.kind.name(),
        span.client,
        span.index,
        span.total,
    );
    for (name, phase) in names.iter().zip(span.phases) {
        out.push_str(&format!(",\"{name}\":{phase}"));
    }
    out.push('}');
    out
}

/// Nearest-rank percentile of an unsorted sample (`q` in (0, 1]); 0 when
/// empty. Allocation is fine here — rendering is off the hot path.
fn percentile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(|a, b| a.partial_cmp(b).expect("span durations are not NaN"));
    let rank = ((samples.len() as f64) * q).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

fn summary_block(out: &mut String, label: &str, samples: &mut [f64]) {
    out.push_str(&format!(
        "\"{label}\":{{\"p50\":{},\"p99\":{},\"p999\":{}}}",
        percentile(samples, 0.5),
        percentile(samples, 0.99),
        percentile(samples, 0.999),
    ));
}

/// Renders a span batch as JSONL: one object per span, then one final
/// `{"summary":...}` line with per-phase percentiles over the request
/// spans. The summary line is emitted even for an empty batch, so a
/// scraper can always anchor on it.
pub fn render_span_batch(batch: &SpanBatch) -> String {
    let mut out = String::new();
    for span in &batch.spans {
        out.push_str(&render_span_json(span));
        out.push('\n');
    }
    let requests: Vec<&Span> = batch
        .spans
        .iter()
        .filter(|s| s.kind == SpanKind::Request)
        .collect();
    let stage_count = batch.spans.len() - requests.len();
    out.push_str(&format!(
        "{{\"summary\":{{\"request_spans\":{},\"stage_spans\":{},\"dropped\":{},\"next_seq\":{},",
        requests.len(),
        stage_count,
        batch.dropped,
        batch.next_seq,
    ));
    let mut totals: Vec<f64> = requests.iter().map(|s| s.total).collect();
    summary_block(&mut out, "total", &mut totals);
    for (i, name) in REQUEST_PHASE_NAMES.iter().enumerate() {
        out.push(',');
        let mut samples: Vec<f64> = requests.iter().map(|s| s.phases[i]).collect();
        summary_block(&mut out, name, &mut samples);
    }
    out.push_str("}}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_reads_in_order() {
        let ring = SpanRing::with_capacity(16);
        for i in 0..5u64 {
            ring.record(SpanKind::Request, 7, i, i as f64, [i as f64, 0.0, 0.0, 0.0]);
        }
        let batch = ring.since(0);
        assert_eq!(batch.dropped, 0);
        assert_eq!(batch.next_seq, 5);
        assert_eq!(batch.spans.len(), 5);
        for (i, s) in batch.spans.iter().enumerate() {
            assert_eq!(s.seq, i as u64);
            assert_eq!(s.kind, SpanKind::Request);
            assert_eq!(s.client, 7);
            assert_eq!(s.index, i as u64);
            assert_eq!(s.total, i as f64);
            assert_eq!(s.phases[0], i as f64);
        }
    }

    #[test]
    fn overflow_is_counted_not_silent() {
        let ring = SpanRing::with_capacity(8);
        for i in 0..20u64 {
            ring.record(SpanKind::Stage, 0, i, 1.0, [1.0, 0.0, 0.0, 0.0]);
        }
        let batch = ring.since(0);
        assert_eq!(batch.dropped, 12);
        assert_eq!(batch.spans.len(), 8);
        assert_eq!(batch.spans.first().unwrap().seq, 12);
        assert_eq!(batch.next_seq, 20);
    }

    #[test]
    fn sampling_is_deterministic_and_defaults_off() {
        let _g = crate::test_switch_guard();
        set_sample_every(0);
        assert!(!sampled(0), "tracing defaults off");
        set_sample_every(4);
        let picks: Vec<u64> = (0..12).filter(|&i| sampled(i)).collect();
        assert_eq!(picks, vec![0, 4, 8]);
        set_sample_every(0);
        assert!(!sampled(0));
    }

    #[test]
    fn attribution_telescopes_exactly() {
        // Lossless same-channel: t == e == ns.
        assert_eq!(
            attribute_wait(10.0, 14.0, 14.0, 14.0, 14.0),
            [4.0, 0.0, 0.0, 0.0]
        );
        // Cross-channel switch: ns 12, e 17.
        assert_eq!(
            attribute_wait(10.0, 12.0, 17.0, 17.0, 17.0),
            [2.0, 5.0, 0.0, 0.0]
        );
        // Loss, periodic recovery: expected 14, received at 39.
        assert_eq!(
            attribute_wait(10.0, 14.0, 14.0, 39.0, 39.0),
            [4.0, 0.0, 25.0, 0.0]
        );
        // Loss, coded repair at 20 vs periodic 39: 19 slots of credit.
        let phases = attribute_wait(10.0, 14.0, 14.0, 39.0, 20.0);
        assert_eq!(phases, [4.0, 0.0, 25.0, 19.0]);
        let span = Span {
            seq: 0,
            kind: SpanKind::Request,
            client: 1,
            index: 0,
            total: 10.0,
            phases,
        };
        assert_eq!(span.phase_sum(), 10.0, "phases telescope to t - r");
    }

    #[test]
    fn record_request_accepts_conserving_spans() {
        let phases = attribute_wait(6.0, 9.0, 11.0, 30.0, 14.0);
        record_request(42, 8, 8.0, phases);
        let batch = spans().since(0);
        let span = batch
            .spans
            .iter()
            .find(|s| s.client == 42 && s.index == 8)
            .expect("span recorded");
        assert_eq!(span.total, 8.0);
        assert_eq!(span.phase_sum(), span.total);
    }

    #[test]
    #[should_panic(expected = "conservation violated")]
    fn record_request_rejects_non_conserving_spans() {
        record_request(1, 0, 5.0, [1.0, 1.0, 1.0, 0.0]);
    }

    #[test]
    fn drain_micros_accumulate_and_reset() {
        let _g = crate::test_switch_guard();
        let _ = take_drain_micros();
        note_drain_micros(3);
        note_drain_micros(4);
        assert_eq!(take_drain_micros(), 7);
        assert_eq!(take_drain_micros(), 0, "take resets the accumulator");
    }

    #[test]
    fn span_json_shape_is_pinned() {
        let span = Span {
            seq: 3,
            kind: SpanKind::Request,
            client: 11,
            index: 2,
            total: 7.5,
            phases: [5.0, 2.5, 0.0, 0.0],
        };
        assert_eq!(
            render_span_json(&span),
            "{\"seq\":3,\"kind\":\"request\",\"client\":11,\"index\":2,\"total\":7.5,\
             \"broadcast\":5,\"switch\":2.5,\"loss\":0,\"credit\":0}"
        );
        let stage = Span {
            seq: 4,
            kind: SpanKind::Stage,
            client: 0,
            index: 100,
            total: 12.0,
            phases: [1.0, 2.0, 4.0, 5.0],
        };
        assert_eq!(
            render_span_json(&stage),
            "{\"seq\":4,\"kind\":\"stage\",\"client\":0,\"index\":100,\"total\":12,\
             \"jitter_us\":1,\"encode_us\":2,\"enqueue_us\":4,\"drain_us\":5}"
        );
    }

    #[test]
    fn batch_render_always_ends_with_a_summary() {
        let empty = SpanBatch {
            spans: Vec::new(),
            dropped: 0,
            next_seq: 0,
        };
        let text = render_span_batch(&empty);
        assert_eq!(text.lines().count(), 1);
        assert!(text.starts_with("{\"summary\":{\"request_spans\":0,\"stage_spans\":0,"));

        let batch = SpanBatch {
            spans: vec![
                Span {
                    seq: 0,
                    kind: SpanKind::Request,
                    client: 1,
                    index: 0,
                    total: 4.0,
                    phases: [4.0, 0.0, 0.0, 0.0],
                },
                Span {
                    seq: 1,
                    kind: SpanKind::Stage,
                    client: 0,
                    index: 9,
                    total: 3.0,
                    phases: [1.0, 1.0, 1.0, 0.0],
                },
            ],
            dropped: 2,
            next_seq: 12,
        };
        let text = render_span_batch(&batch);
        let last = text.lines().last().unwrap();
        assert!(last.contains("\"request_spans\":1,\"stage_spans\":1,\"dropped\":2"));
        assert!(last.contains("\"total\":{\"p50\":4,\"p99\":4,\"p999\":4}"));
        assert!(last.contains("\"broadcast\":{\"p50\":4"));
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let mut samples: Vec<f64> = (1..=100).map(|v| v as f64).collect();
        assert_eq!(percentile(&mut samples, 0.5), 50.0);
        assert_eq!(percentile(&mut samples, 0.99), 99.0);
        assert_eq!(percentile(&mut samples, 0.999), 100.0);
        assert_eq!(percentile(&mut [], 0.5), 0.0);
    }

    #[test]
    fn concurrent_writers_keep_sequences_unique() {
        use std::sync::Arc;
        let ring = Arc::new(SpanRing::with_capacity(1024));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let ring = Arc::clone(&ring);
            handles.push(std::thread::spawn(move || {
                for i in 0..200u64 {
                    ring.record(SpanKind::Stage, t, i, 1.0, [1.0, 0.0, 0.0, 0.0]);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let batch = ring.since(0);
        assert_eq!(batch.spans.len() as u64 + batch.dropped, 800);
        let mut seqs: Vec<u64> = batch.spans.iter().map(|s| s.seq).collect();
        let len = seqs.len();
        seqs.dedup();
        assert_eq!(seqs.len(), len, "sequence numbers must be unique");
    }
}
