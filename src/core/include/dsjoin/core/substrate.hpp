// Shared summary substrate (multi-query serving, DESIGN.md §15).
//
// Before this layer existed, every routing policy privately owned the
// summary state it consulted: the sliding DFTs and coefficient stores, the
// counting-Bloom filters, the AGMS sketches, the histogram spectra, the
// stratified reservoirs. One query per run made that harmless. With N
// registered queries per node it would mean N copies of the same windows
// ingesting every tuple N times.
//
// SummarySubstrate lifts exactly that state out of the policies into one
// per-node object holding at most one *engine* per summary family
// (family_of(PolicyKind)). The node feeds each local tuple into the
// substrate once; every registered query's policy consults its family's
// engine read-mostly (the cached flow coefficients and join-size estimates
// are idempotent between summary applications, so query evaluation order
// cannot change them). Policies retain only routing state — their RNG
// stream, throttle, fallback and probability diagnostics — which is what
// makes per-query routing independent while the ingest-side maintenance
// cost stays per-family (bench_multiquery measures this amortization).
//
// The substrate counts local tuples and runs the summary cadence once for
// every engine: at each epoch boundary it lets the engines refresh their
// caches (and the DFT family republish its coefficients), and every
// summary_epoch_tuples tuples it sends each snapshot family's block
// (BLOOM, SKCH, SPEC, SMPL) to every peer. The DFT family's coefficients
// ride on tuple frames instead, plus its own stale flushes.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "dsjoin/core/config.hpp"
#include "dsjoin/core/policy.hpp"
#include "dsjoin/core/summary_state.hpp"
#include "dsjoin/dsp/histogram_spectrum.hpp"
#include "dsjoin/dsp/sliding_dft.hpp"
#include "dsjoin/sampling/reservoir.hpp"
#include "dsjoin/sketch/agms.hpp"
#include "dsjoin/sketch/bloom.hpp"
#include "dsjoin/stream/window.hpp"

namespace dsjoin::core {

/// DFT/DFTT family engine: per-side sliding DFTs with robust clipping, the
/// published/synced coefficient bookkeeping, every peer's remote
/// coefficient store, and the cached flow coefficients rho (Eq. 4/5).
class DftSummaryEngine {
 public:
  DftSummaryEngine(const SystemConfig& config, net::NodeId self);

  /// `seen`: local tuples the substrate counted before this one.
  void observe_local(const stream::Tuple& tuple, std::uint64_t seen);
  SummaryBlock piggyback_for(net::NodeId peer);
  /// Epoch boundary: re-publishes the local coefficients (Figure 7 lines
  /// 1-2) and marks every cached rho dirty.
  void close_epoch();
  /// Called once per local arrival: full blocks for peers that have heard
  /// nothing from this node for kStaleFlushEpochs epochs (Figure 7: "if a
  /// tuple message was not sent to some site for a long period, the batch
  /// of updates are transmitted on their own").
  std::vector<OutboundSummary> stale_flushes();
  /// Applies one decoded coefficient-delta sub-block from `peer`.
  void apply_deltas(net::NodeId peer, stream::StreamSide side,
                    std::uint32_t window, std::uint32_t retained,
                    const std::vector<dsp::CoeffDelta>& deltas);

  // Routing-side queries. The caches they refresh are idempotent between
  // summary applications and epoch republishes, so concurrent queries of
  // the family read the same values regardless of evaluation order.
  double refreshed_rho(net::NodeId peer, std::size_t tuple_side);
  bool remote_seeded(net::NodeId peer, std::size_t remote_side) const {
    return peers_[peer].remote[remote_side].seeded();
  }
  std::uint64_t estimate_count(net::NodeId peer, std::size_t remote_side,
                               std::int64_t key, std::int64_t tolerance) {
    return peers_[peer].remote[remote_side].estimate_count(key, tolerance);
  }

 private:
  struct PeerState {
    std::array<CoeffStore, 2> remote;           // by remote side
    std::array<std::vector<dsp::Complex>, 2> synced;  // last coeffs sent, by local side
    std::array<double, 2> rho{0.0, 0.0};        // corr(local side s, remote opp(s))
    std::array<bool, 2> rho_dirty{true, true};
    std::uint64_t tuples_since_contact = 0;
  };

  /// Deltas (vs what `peer` has been sent) for one local side; at most
  /// `max_entries` (0 = unlimited), largest changes first.
  std::vector<dsp::CoeffDelta> deltas_for(net::NodeId peer, std::size_t side,
                                          std::size_t max_entries);
  /// Encodes both sides' pending deltas for a peer into one block.
  SummaryBlock block_for(net::NodeId peer, std::size_t max_entries_per_side);

  /// Robust value band for outlier clipping (median +/- 10 MAD, refreshed
  /// each epoch from a sample of recent raw keys).
  struct ClipBand {
    double lo = -1e300;
    double hi = 1e300;
  };
  void refresh_clip_band(std::size_t side);

  /// Pushes the side's buffered (already clipped) values into the DFT as
  /// one batch. Called before any read of local_[side]; see observe_local.
  void flush_pending(std::size_t side);

  SystemConfig config_;
  net::NodeId self_;
  std::array<dsp::SlidingDft, 2> local_;
  /// Clipped values observed since the last read of local_[side]. Routing
  /// never reads the local DFTs, so between summary refreshes the per-tuple
  /// pushes accumulate here and enter the DFT through the vectorized
  /// push_batch — with results identical to pushing each value at
  /// observation time, because nothing reads the coefficients in between.
  std::array<std::vector<double>, 2> pending_values_;
  std::array<ClipBand, 2> clip_;
  std::array<std::vector<double>, 2> recent_raw_;  // bounded sample buffer
  /// Epoch snapshot of the local coefficients — what peers are synced to.
  std::array<std::vector<dsp::Complex>, 2> published_;
  std::vector<PeerState> peers_;  // indexed by node id (self entry unused)
};

/// BLOOM engine: counting Bloom filters over the per-side summary windows
/// plus the latest remote snapshot per (peer, side).
class BloomSummaryEngine {
 public:
  explicit BloomSummaryEngine(const SystemConfig& config);

  void observe_local(const stream::Tuple& tuple);
  /// Both sides' filter snapshots, the block the substrate broadcasts.
  SummaryBlock snapshot();
  void apply_snapshot(net::NodeId peer, stream::StreamSide side,
                      sketch::BloomFilter filter);

  bool remote_seeded(net::NodeId peer, std::size_t remote_side) const {
    return peers_[peer].remote[remote_side].seeded();
  }
  bool remote_contains(net::NodeId peer, std::size_t remote_side,
                       std::int64_t key, std::int64_t tolerance) const {
    return peers_[peer].remote[remote_side].contains(key, tolerance);
  }

 private:
  struct PeerState {
    std::array<BloomStore, 2> remote;  // by remote side
  };

  /// Applies the side's buffered keys to the window and counting filter
  /// as one batch (only read at snapshot time).
  void flush_pending(std::size_t side);

  std::array<sketch::CountingBloomFilter, 2> counting_;
  std::array<stream::CountWindow, 2> window_;
  std::array<std::vector<std::int64_t>, 2> pending_;  // keys, by side
  std::vector<std::uint64_t> key_scratch_;
  std::vector<std::int32_t> delta_scratch_;
  std::vector<PeerState> peers_;
};

/// SKCH engine: AGMS sketches over the per-side summary windows, remote
/// sketches per (peer, side), and the cached pairwise join-size estimates.
class SketchSummaryEngine {
 public:
  explicit SketchSummaryEngine(const SystemConfig& config);

  void observe_local(const stream::Tuple& tuple);
  /// Epoch boundary: the local windows drift every tuple, so the cached
  /// pairwise estimates refresh once per epoch even without new remote
  /// sketches.
  void close_epoch();
  /// Both sides' sketches, the block the substrate broadcasts.
  SummaryBlock snapshot();
  void apply_sketch(net::NodeId peer, stream::StreamSide side,
                    sketch::AgmsSketch sketch);

  bool remote_seeded(net::NodeId peer, std::size_t remote_side) const {
    return peers_[peer].remote[remote_side].seeded();
  }
  double refreshed_estimate(net::NodeId peer, std::size_t tuple_side);

 private:
  struct PeerState {
    std::array<SketchStore, 2> remote;
    std::array<double, 2> est{0.0, 0.0};  // join-size estimate by tuple side
    std::array<bool, 2> est_dirty{true, true};
  };

  void flush_pending(std::size_t side);

  std::array<sketch::AgmsSketch, 2> local_;
  std::array<stream::CountWindow, 2> window_;
  std::array<std::vector<std::int64_t>, 2> pending_;  // keys, by side
  std::vector<std::uint64_t> key_scratch_;
  std::vector<std::uint64_t> evicted_scratch_;
  std::vector<PeerState> peers_;
};

/// SPEC engine: histogram-DFT spectra over the per-side summary windows,
/// remote coefficients per (peer, side), and cached Parseval estimates.
class SpectrumSummaryEngine {
 public:
  explicit SpectrumSummaryEngine(const SystemConfig& config);

  void observe_local(const stream::Tuple& tuple);
  /// Epoch boundary: refreshes the cached Parseval estimates.
  void close_epoch();
  /// Both sides' spectra, the block the substrate broadcasts.
  SummaryBlock snapshot();
  void apply_spectrum(net::NodeId peer, stream::StreamSide side,
                      std::uint32_t buckets, std::vector<dsp::Complex> coeffs);

  bool remote_seeded(net::NodeId peer, std::size_t remote_side) const {
    return peers_[peer].seeded[remote_side];
  }
  double refreshed_estimate(net::NodeId peer, std::size_t tuple_side);

 private:
  struct PeerState {
    std::array<std::vector<dsp::Complex>, 2> remote;  // by remote side
    std::array<bool, 2> seeded{false, false};
    std::array<double, 2> est{0.0, 0.0};
    std::array<bool, 2> est_dirty{true, true};
  };

  SystemConfig config_;
  std::uint32_t buckets_;
  std::array<dsp::HistogramSpectrum, 2> local_;
  std::array<stream::CountWindow, 2> window_;
  std::vector<PeerState> peers_;
};

/// SMPL engine: stratified sliding-window reservoirs per side, the lazily
/// refreshed own-sample aggregates, and remote samples per (peer, side).
class SampleSummaryEngine {
 public:
  SampleSummaryEngine(const SystemConfig& config, net::NodeId self);

  void observe_local(const stream::Tuple& tuple);
  /// Epoch boundary: the sample drifts every tuple, so the cached own
  /// aggregates refresh once per epoch (routing's self-term tracks the
  /// window without an aggregation per tuple).
  void close_epoch() { own_dirty_ = {true, true}; }
  /// Both sides' fresh own samples, the block the substrate broadcasts.
  SummaryBlock snapshot();
  void apply_sample(net::NodeId peer, stream::StreamSide side,
                    sampling::SampleSummary summary);

  /// Own sample aggregated for estimation, refreshed lazily per epoch.
  const sampling::SampleSummary& own_summary(std::size_t side);
  const sampling::SampleSummary* remote(net::NodeId peer,
                                        std::size_t remote_side) const {
    return peers_[peer].remote[remote_side].summary();
  }

 private:
  struct PeerState {
    std::array<SampleStore, 2> remote;  // by remote side
  };

  std::array<sampling::StratifiedReservoir, 2> reservoir_;
  std::array<sampling::SampleSummary, 2> own_;
  std::array<bool, 2> own_dirty_{true, true};
  std::vector<PeerState> peers_;
};

/// The per-node summary substrate: at most one engine per family, shared
/// by every registered query of that family.
class SummarySubstrate {
 public:
  SummarySubstrate(const SystemConfig& config, net::NodeId self);

  // Lazy engine access: creates the family's engine on first use from the
  // base config (summary geometry is base-config by construction, so a
  // per-query config overlay never reaches an engine).
  DftSummaryEngine& coeff();
  BloomSummaryEngine& bloom();
  SketchSummaryEngine& sketch();
  SpectrumSummaryEngine& spectrum();
  SampleSummaryEngine& sample();

  /// Registers query `id` as a consumer of `family` (creates the engine;
  /// kNone registers nothing). The node calls this once per query.
  void subscribe(SummaryFamily family, std::uint32_t query_id);

  /// Lowest subscribed query id of a family, or 0 — the query a standalone
  /// summary frame's traffic is attributed to.
  std::uint32_t lowest_subscriber(SummaryFamily family) const;

  /// When on, outbound blocks are wrapped in a query-scope sub-block
  /// ('Q', wire format v6) carrying the family's subscriber ids.
  void set_multi_query(bool on) noexcept { multi_query_ = on; }

  /// True once any summary-bearing family is registered — what drivers
  /// consult to decide whether virtual-time summary synchronization
  /// (watermarks, visibility buffering) is needed at all.
  bool uses_summaries() const noexcept;

  // The ingest path the node calls ONCE per tuple / frame, regardless of
  // how many queries are registered.
  void observe_local(const stream::Tuple& tuple);
  /// Summary bytes to piggyback on a tuple frame to `peer` (may be empty);
  /// marks the drained state as synced to that peer.
  SummaryBlock piggyback_for(net::NodeId peer);
  /// Called once per local arrival after routing: closes the summary epoch
  /// when the local count reaches a multiple of summary_epoch_tuples,
  /// broadcasts the snapshot families once that many tuples arrived since
  /// the last broadcast, and adds the DFT family's stale flushes. The two
  /// cadences coincide while maintenance runs once per observed tuple.
  std::vector<OutboundSummary> maintenance(double now);
  /// Decodes and applies one received summary block. A non-ok status
  /// (kDataLoss) means part of the block was malformed and dropped; the
  /// node counts it as a decode failure.
  common::Status on_summary(net::NodeId from, const SummaryBlock& block);

  /// Engine observe_local calls performed so far — the ingest-side
  /// maintenance cost. Grows with registered *families*, not queries;
  /// bench_multiquery reports it to demonstrate the amortization.
  std::uint64_t ingest_ops() const noexcept { return ingest_ops_; }

  /// Local tuples observed so far.
  std::uint64_t local_tuples() const noexcept { return local_tuples_; }

 private:
  /// Decodes one (unwrapped) block and applies each sub-block to the
  /// owning engine. Sub-blocks of unregistered families are dropped.
  common::Status dispatch(net::NodeId from, const SummaryBlock& block);
  /// Wraps `block` in a query-scope sub-block for `family`'s subscribers.
  SummaryBlock wrap(SummaryFamily family, SummaryBlock block) const;
  /// Appends `block` for every peer, wrapped once in multi-query mode.
  void broadcast(SummaryFamily family, SummaryBlock block,
                 std::vector<OutboundSummary>& out) const;

  SystemConfig config_;
  net::NodeId self_;
  bool multi_query_ = false;
  std::unique_ptr<DftSummaryEngine> coeff_;
  std::unique_ptr<BloomSummaryEngine> bloom_;
  std::unique_ptr<SketchSummaryEngine> sketch_;
  std::unique_ptr<SpectrumSummaryEngine> spectrum_;
  std::unique_ptr<SampleSummaryEngine> sample_;
  std::array<std::vector<std::uint32_t>, kSummaryFamilies> subscribers_;
  std::uint64_t ingest_ops_ = 0;
  std::uint64_t local_tuples_ = 0;
  std::uint64_t last_broadcast_tuple_ = 0;
};

}  // namespace dsjoin::core
