//! Communication accounting for the experiment suite.
//!
//! The paper states all its communication-complexity bounds as "bits
//! communicated by the honest parties"; these counters measure exactly that.
//! The struct additionally carries *scheduler observability* counters (event
//! throughput, queue pressure, same-time batch widths, worker threads) used
//! to understand and tune the simulator itself.

use std::collections::BTreeMap;

/// Aggregated communication metrics of one run, on either transport backend.
///
/// Equality (`PartialEq`) compares every *execution* field — everything that
/// must be bit-identical across reruns, across worker-thread counts and
/// across transport backends — and deliberately ignores the harness /
/// wall-clock observability fields ([`Metrics::worker_threads`],
/// [`Metrics::max_queue_depth`], [`Metrics::timeouts_fired`],
/// [`Metrics::held_packets_peak`], [`Metrics::late_packets`]): those describe
/// *how* the run was executed (thread count, real-time pacing, queue
/// pressure), not *what* it computed. A `threads = 4` run must compare equal
/// to the `threads = 1` run it reproduces, and a threaded-backend run must
/// compare equal to its simulator oracle even though its wall-clock-driven
/// timer/queue behaviour is inherently non-reproducible.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    /// Messages sent by honest parties.
    pub honest_messages: u64,
    /// Bits sent by honest parties: the *exact* length of the canonical wire
    /// encoding ([`crate::wire::WireEncode`]) of every message they put on a
    /// channel, ×8. A broadcast counts once per recipient (the network is a
    /// complete graph of pairwise channels), even though the simulator
    /// encodes its payload only once.
    pub honest_bits: u64,
    /// Messages sent by corrupt parties that reached the wire
    /// (informational only; messages their [`crate::adversary::ByzantineStrategy`]
    /// dropped are in [`Metrics::adversary_drops`] instead).
    pub corrupt_messages: u64,
    /// Corrupt-sender messages suppressed by the Byzantine strategy.
    pub adversary_drops: u64,
    /// Corrupt-sender messages whose bytes the Byzantine strategy replaced
    /// (equivocation, garbling).
    pub adversary_tampered: u64,
    /// Deliveries whose bytes failed to decode as a protocol message; they
    /// are treated as Byzantine input and dropped at the boundary.
    pub decode_failures: u64,
    /// Number of events processed.
    pub events_processed: u64,
    /// Wire-frame events dispatched (one per `(sender, destination)` frame;
    /// a broadcast frame counts once per recipient).
    pub frames_sent: u64,
    /// Largest number of pending events — deliveries held plus timers
    /// armed, the slice's own events included — sampled at the start of
    /// every slice: across all inboxes on the simulator, per party and tick
    /// on the real media. Queue *pressure* is scheduler observability, not
    /// execution fingerprint — on the real media it depends on wall-clock
    /// arrival timing — so it is excluded from `PartialEq`.
    pub max_queue_depth: u64,
    /// Histogram of same-time batch widths: `batch_width_hist[i]` counts the
    /// batches that processed a number of events in `[2^i, 2^(i+1))` (batch
    /// width includes same-tick cascades such as broadcast self-deliveries).
    /// Empty batches are never recorded. Batch *granularity* is
    /// backend-specific — the simulator records whole time slices (all
    /// parties), the threaded backend per-party tick batches — so this is
    /// engine observability, excluded from `PartialEq`.
    pub batch_width_hist: Vec<u64>,
    /// The worker-thread count the simulation was configured with
    /// (`NetConfig::with_threads` / the `MPC_THREADS` environment knob).
    /// Harness observability only — excluded from `PartialEq`, because the
    /// whole point of the deterministic parallel engine is that this knob
    /// does not change the execution.
    pub worker_threads: u64,
    /// Honest bits broken down by the *top-level path segment* of the sending
    /// instance — lets composite experiments attribute cost to sub-protocols.
    pub honest_bits_by_root_segment: BTreeMap<u32, u64>,
    /// Honest bits broken down by *sending party* (`honest_bits_by_party[i]`
    /// is the exact wire-bit total party `i` put on its channels; corrupt
    /// parties stay 0). Part of the execution fingerprint: the transport
    /// conformance oracle asserts this vector is identical between the
    /// threaded backend and the simulator.
    pub honest_bits_by_party: Vec<u64>,
    /// Timer expiries processed, same-tick zero-delay expiries included,
    /// letting the sweep harness assert timeout-driven fallback on any
    /// backend. On the real media every other expiry is a *real* wall-clock
    /// timeout (a `recv_timeout` deadline), so the count is kept out of
    /// `PartialEq`.
    pub timeouts_fired: u64,
    /// Threaded backend only: largest number of latency-held inbound packets
    /// observed at any party. Wall-clock observability, excluded from
    /// `PartialEq`.
    pub held_packets_peak: u64,
    /// Threaded backend only: packets that physically arrived after their
    /// delivery deadline had already been processed (their logical delivery
    /// tick was clamped forward). A diagnostic for real-time jitter; 0 in a
    /// healthy run. Excluded from `PartialEq`.
    pub late_packets: u64,
    /// Effective packed-evaluation width `ℓ` of the run (0 = scalar engine).
    /// Protocol *configuration*, injected post-run by the builder — excluded
    /// from `PartialEq` so a run's fingerprint stays defined by what went on
    /// the wire, not by which knob produced it.
    pub packed_width: u64,
    /// Publicly opened values per multiplication layer, as reported by the
    /// first honest party (layer-batched scalar and packed engines; empty on
    /// the per-gate reference path). Builder-injected observability — the
    /// packing experiment's headline statistic — excluded from `PartialEq`
    /// like the other harness fields.
    pub values_opened_by_layer: Vec<u64>,
    /// Messages suppressed by the injected [`crate::faults::FaultPlan`]
    /// (crash/partition/drop-burst rules). Part of the execution fingerprint:
    /// plans are pure functions of the message coordinates, so both backends
    /// must drop the exact same messages.
    pub fault_drops: u64,
    /// Extra message copies injected by [`crate::faults::FaultPlan`]
    /// duplicate-burst rules. Execution fingerprint, like
    /// [`Metrics::fault_drops`].
    pub fault_duplicates: u64,
    /// Threaded backend only: parties whose conservative delivery gate gave
    /// up after the configured wedge timeout (`MpcBuilder::wedge_timeout`)
    /// without progress. Wall-clock observability, excluded
    /// from `PartialEq`; any non-zero count also surfaces as a typed
    /// `TransportError::Wedged`.
    pub wedges: u64,
    /// TCP backend only: connections re-established by a link supervisor
    /// after the initial dial succeeded (a severed or torn-down socket that
    /// was dialed again and resumed via replay). Wall-clock observability,
    /// excluded from `PartialEq`.
    pub reconnects: u64,
    /// TCP backend only: failed dial attempts across all link supervisors
    /// (each entry in an exponential-backoff retry sequence that did not
    /// yield a connection). Wall-clock observability, excluded from
    /// `PartialEq`.
    pub dial_retries: u64,
    /// TCP backend only: sequenced link records retransmitted from a
    /// supervisor's replay buffer after a reconnect (at-least-once delivery;
    /// the receiver dedupes them by sequence number, so replays never reach
    /// the protocol). Wall-clock observability, excluded from `PartialEq`.
    pub frames_replayed: u64,
    /// TCP backend only: bytes discarded by the incremental stream decoder
    /// when it abandoned an unparsable or truncated record and tore the
    /// connection down to resynchronise at a record boundary. Wall-clock
    /// observability, excluded from `PartialEq`.
    pub bytes_resynced: u64,
}

impl PartialEq for Metrics {
    fn eq(&self, other: &Self) -> bool {
        // Exhaustive destructuring (no `..`): adding a field to `Metrics`
        // must fail to compile here, forcing an explicit decision on whether
        // it joins the execution fingerprint or the harness-only set.
        let Metrics {
            honest_messages,
            honest_bits,
            corrupt_messages,
            adversary_drops,
            adversary_tampered,
            decode_failures,
            events_processed,
            frames_sent,
            max_queue_depth: _,  // wall-clock/queue observability: struct docs
            batch_width_hist: _, // backend-specific batch granularity
            worker_threads: _,   // harness observability: see the struct docs
            honest_bits_by_root_segment,
            honest_bits_by_party,
            timeouts_fired: _,         // real-time pacing observability
            held_packets_peak: _,      // real-time pacing observability
            late_packets: _,           // real-time pacing observability
            packed_width: _,           // builder-injected configuration echo
            values_opened_by_layer: _, // builder-injected observability
            fault_drops,
            fault_duplicates,
            wedges: _,          // wall-clock gate observability
            reconnects: _,      // socket supervisor observability
            dial_retries: _,    // socket supervisor observability
            frames_replayed: _, // socket supervisor observability
            bytes_resynced: _,  // socket supervisor observability
        } = self;
        *honest_messages == other.honest_messages
            && *honest_bits == other.honest_bits
            && *corrupt_messages == other.corrupt_messages
            && *adversary_drops == other.adversary_drops
            && *adversary_tampered == other.adversary_tampered
            && *decode_failures == other.decode_failures
            && *events_processed == other.events_processed
            && *frames_sent == other.frames_sent
            && *honest_bits_by_root_segment == other.honest_bits_by_root_segment
            && *honest_bits_by_party == other.honest_bits_by_party
            && *fault_drops == other.fault_drops
            && *fault_duplicates == other.fault_duplicates
    }
}

impl Eq for Metrics {}

impl Metrics {
    /// A zeroed metrics record.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Records one sent message of party `from`.
    pub fn record_send(&mut self, from: usize, honest: bool, bits: u64, root_segment: Option<u32>) {
        if honest {
            self.honest_messages += 1;
            self.honest_bits += bits;
            if let Some(seg) = root_segment {
                *self.honest_bits_by_root_segment.entry(seg).or_insert(0) += bits;
            }
            if self.honest_bits_by_party.len() <= from {
                self.honest_bits_by_party.resize(from + 1, 0);
            }
            self.honest_bits_by_party[from] += bits;
        } else {
            self.corrupt_messages += 1;
        }
    }

    /// Folds another party-local metrics record into this one (used by the
    /// threaded backend to aggregate its per-party accounting).
    pub fn merge(&mut self, other: &Metrics) {
        self.honest_messages += other.honest_messages;
        self.honest_bits += other.honest_bits;
        self.corrupt_messages += other.corrupt_messages;
        self.adversary_drops += other.adversary_drops;
        self.adversary_tampered += other.adversary_tampered;
        self.decode_failures += other.decode_failures;
        self.events_processed += other.events_processed;
        self.frames_sent += other.frames_sent;
        self.max_queue_depth = self.max_queue_depth.max(other.max_queue_depth);
        if self.batch_width_hist.len() < other.batch_width_hist.len() {
            self.batch_width_hist
                .resize(other.batch_width_hist.len(), 0);
        }
        for (i, count) in other.batch_width_hist.iter().enumerate() {
            self.batch_width_hist[i] += count;
        }
        self.timeouts_fired += other.timeouts_fired;
        self.fault_drops += other.fault_drops;
        self.fault_duplicates += other.fault_duplicates;
        self.wedges += other.wedges;
        self.reconnects += other.reconnects;
        self.dial_retries += other.dial_retries;
        self.frames_replayed += other.frames_replayed;
        self.bytes_resynced += other.bytes_resynced;
        self.held_packets_peak = self.held_packets_peak.max(other.held_packets_peak);
        self.late_packets += other.late_packets;
        self.packed_width = self.packed_width.max(other.packed_width);
        if self.values_opened_by_layer.len() < other.values_opened_by_layer.len() {
            self.values_opened_by_layer
                .resize(other.values_opened_by_layer.len(), 0);
        }
        for (i, v) in other.values_opened_by_layer.iter().enumerate() {
            self.values_opened_by_layer[i] = self.values_opened_by_layer[i].max(*v);
        }
        for (seg, bits) in &other.honest_bits_by_root_segment {
            *self.honest_bits_by_root_segment.entry(*seg).or_insert(0) += bits;
        }
        if self.honest_bits_by_party.len() < other.honest_bits_by_party.len() {
            self.honest_bits_by_party
                .resize(other.honest_bits_by_party.len(), 0);
        }
        for (i, bits) in other.honest_bits_by_party.iter().enumerate() {
            self.honest_bits_by_party[i] += bits;
        }
    }

    /// Records one processed time slice of `width` events (0 is ignored) and
    /// the pending-event count `depth` observed at its boundary.
    pub fn record_slice(&mut self, width: u64, depth: u64) {
        self.max_queue_depth = self.max_queue_depth.max(depth);
        if width == 0 {
            return;
        }
        let bucket = width.ilog2() as usize;
        if self.batch_width_hist.len() <= bucket {
            self.batch_width_hist.resize(bucket + 1, 0);
        }
        self.batch_width_hist[bucket] += 1;
    }

    /// Total number of (non-empty) time slices recorded in the batch-width
    /// histogram.
    pub fn slices_processed(&self) -> u64 {
        self.batch_width_hist.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_honest_and_corrupt_separately() {
        let mut m = Metrics::new();
        m.record_send(0, true, 100, Some(2));
        m.record_send(0, true, 50, Some(2));
        m.record_send(2, true, 10, None);
        m.record_send(3, false, 9999, Some(1));
        assert_eq!(m.honest_messages, 3);
        assert_eq!(m.honest_bits, 160);
        assert_eq!(m.corrupt_messages, 1);
        assert_eq!(m.honest_bits_by_root_segment.get(&2), Some(&150));
        assert_eq!(m.honest_bits_by_root_segment.get(&1), None);
        assert_eq!(m.honest_bits_by_party, vec![150, 0, 10]);
    }

    #[test]
    fn merge_folds_party_local_records() {
        let mut a = Metrics::new();
        a.record_send(0, true, 100, Some(2));
        a.timeouts_fired = 3;
        a.held_packets_peak = 5;
        let mut b = Metrics::new();
        b.record_send(2, true, 10, Some(2));
        b.record_send(1, false, 7, None);
        b.timeouts_fired = 2;
        b.held_packets_peak = 9;
        a.merge(&b);
        assert_eq!(a.honest_messages, 2);
        assert_eq!(a.honest_bits, 110);
        assert_eq!(a.corrupt_messages, 1);
        assert_eq!(a.honest_bits_by_root_segment.get(&2), Some(&110));
        assert_eq!(a.honest_bits_by_party, vec![100, 0, 10]);
        assert_eq!(a.timeouts_fired, 5);
        assert_eq!(a.held_packets_peak, 9);
    }

    #[test]
    fn slice_histogram_buckets_by_power_of_two() {
        let mut m = Metrics::new();
        m.record_slice(1, 3); // bucket 0
        m.record_slice(3, 10); // bucket 1
        m.record_slice(4, 2); // bucket 2
        m.record_slice(7, 0); // bucket 2
        m.record_slice(0, 99); // ignored width, still samples depth
        assert_eq!(m.batch_width_hist, vec![1, 1, 2]);
        assert_eq!(m.max_queue_depth, 99);
        assert_eq!(m.slices_processed(), 4);
    }

    #[test]
    fn equality_ignores_harness_and_wall_clock_fields() {
        let mut a = Metrics::new();
        a.record_send(0, true, 8, None);
        let mut b = a.clone();
        b.worker_threads = 4;
        b.max_queue_depth = 99;
        b.timeouts_fired = 7;
        b.held_packets_peak = 3;
        b.late_packets = 1;
        b.reconnects = 2;
        b.dial_retries = 11;
        b.frames_replayed = 5;
        b.bytes_resynced = 640;
        b.record_slice(2, 2); // batch granularity is backend-specific
        assert_eq!(a, b, "harness/wall-clock fields are observability only");
        b.record_send(0, true, 8, None);
        assert_ne!(a, b, "execution fields must still discriminate");
        let mut c = a.clone();
        c.honest_bits_by_party = vec![0, 8];
        assert_ne!(a, c, "per-party attribution is part of the fingerprint");
    }
}
