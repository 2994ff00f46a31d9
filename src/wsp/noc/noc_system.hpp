// The full waferscale NoC: two DoR networks plus the kernel-software
// routing policy (Sec. VI, Fig. 7).
//
// Protocol rules reproduced from the paper:
//   * Requests and responses travel on complementary networks: a request
//     sent X-Y is answered Y-X, so the pair traverses the same tiles
//     (two-way communication works whenever one non-faulty path exists)
//     and request/response deadlock is impossible.
//   * The kernel consults the post-assembly fault map: if only one of the
//     two paths between a pair is healthy it uses that one; if both are
//     healthy it load-balances pairs across the networks — but *all*
//     packets of one source/destination pair stay on one network so
//     packets arrive in order.
//   * If neither direct path is healthy, the kernel routes via an
//     intermediate tile whose core forwards the packets (two chained
//     transactions), costing extra hops and core cycles.
#pragma once

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <memory>
#include <optional>
#include <queue>
#include <tuple>
#include <vector>

#include "wsp/obs/metrics.hpp"

#include "wsp/common/fault_map.hpp"
#include "wsp/noc/connectivity.hpp"
#include "wsp/noc/mesh_network.hpp"
#include "wsp/noc/packet.hpp"
#include "wsp/noc/slab.hpp"

namespace wsp::noc {

/// Fixed-capacity sequence stored inline: a route plan has at most three
/// waypoints and two segments, so it is copied and cached without touching
/// the heap.
template <typename T, std::size_t N>
class InlineVec {
 public:
  using value_type = T;
  using iterator = T*;
  using const_iterator = const T*;

  InlineVec() = default;
  InlineVec(std::initializer_list<T> items) {
    for (const T& v : items) push_back(v);
  }

  void push_back(const T& v) {
    assert(n_ < N);
    items_[n_++] = v;
  }
  std::size_t size() const { return n_; }
  const T& operator[](std::size_t i) const { return items_[i]; }
  const T& front() const { return items_[0]; }
  const T& back() const { return items_[n_ - 1]; }
  const T* begin() const { return items_.data(); }
  const T* end() const { return items_.data() + n_; }

  friend bool operator==(const InlineVec& a, const InlineVec& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  std::array<T, N> items_{};
  std::uint8_t n_ = 0;
};

/// The kernel's per-pair network choice.
struct RoutePlan {
  /// Tile sequence of transaction segments: {src, dst} for a direct route,
  /// {src, mid, dst} when relayed through an intermediate tile.
  InlineVec<TileCoord, 3> waypoints;
  /// Network of the *request* on each segment (responses use the
  /// complement).  networks[i] covers waypoints[i] -> waypoints[i+1].
  InlineVec<NetworkKind, 2> segment_networks;
  bool reachable = false;
  bool relayed = false;
};

/// Kernel-software network selection from the fault map (Sec. VI).
///
/// Every routing question reduces to O(1) run-id lookups in a link-aware
/// ConnectivityAnalyzer: a path is usable iff its tiles are healthy and it
/// crosses no failed link in either direction (the response rides the
/// complementary network back over the same tiles).  Without a direct path
/// the pair is relayed through the intermediate tile with the fewest added
/// hops (lowest tile index on ties), found by one early-exit walk.
///
/// Plans are memoised per (src, dst) pair; `rebind()` adopts a new fault
/// state at runtime and invalidates every cached plan, so the next packet
/// of each pair replans with the usual fallback ladder X-Y -> Y-X ->
/// relayed.  `reachable()` answers the same question without caching, for
/// all-pairs sweeps.
class NetworkSelector {
 public:
  explicit NetworkSelector(const FaultMap& faults);
  NetworkSelector(const FaultMap& faults, const LinkFaultSet& links);

  /// Route plan for src -> dst.  Balanced pairs alternate networks via a
  /// deterministic parity hash so both networks are equally utilised while
  /// any one pair always uses a single network (in-order delivery).  The
  /// reference points into the cache: it stays valid until rebind().
  const RoutePlan& plan(TileCoord src, TileCoord dst) const;

  /// plan(src, dst).reachable, computed without touching the plan cache.
  bool reachable(TileCoord src, TileCoord dst) const;

  /// Adopts a new fault state (runtime fault injection) and drops all
  /// cached plans.  The grids must match the original fault map's.
  void rebind(const FaultMap& faults, const LinkFaultSet& links);
  void rebind(const FaultMap& faults) {
    rebind(faults, LinkFaultSet(faults.grid()));
  }

  /// Number of rebinds so far; bumping it is what invalidates the cache.
  std::uint64_t generation() const { return generation_; }

  /// The link-aware analyzer the plans are made from.
  const ConnectivityAnalyzer& connectivity() const { return analyzer_; }

 private:
  ConnectivityAnalyzer analyzer_;
  std::uint64_t generation_ = 0;
  /// Memoised plans in first-query order, found by (src, dst) pair key.
  mutable Slab<RoutePlan> plans_;
  mutable FlatIndex plan_index_;

  /// Request network for the segment a -> b, or nullopt when neither
  /// network's path is usable.
  std::optional<NetworkKind> choose(TileCoord a, TileCoord b) const;
  RoutePlan compute_plan(TileCoord src, TileCoord dst) const;
};

/// Completed round-trip record.
struct CompletedTransaction {
  std::uint64_t id = 0;
  TileCoord src;
  TileCoord dst;
  PacketType request_type = PacketType::ReadRequest;
  std::uint64_t issue_cycle = 0;
  std::uint64_t complete_cycle = 0;
  bool relayed = false;
  std::uint64_t latency() const { return complete_cycle - issue_cycle; }
};

struct NocOptions {
  MeshOptions mesh{};
  /// Cycles the destination tile takes to produce a response (memory
  /// access through the intra-tile crossbar).
  int service_latency = 4;
  /// Core cycles an intermediate tile spends relaying one packet.
  int relay_latency = 8;
  /// End-to-end round-trip timeout in cycles; 0 disables the timeout/
  /// retry machinery (assembly-time behaviour: a static fault map never
  /// strands a planned transaction).  Enable for runtime fault injection.
  std::uint64_t response_timeout = 0;
  /// Bounded retries after a timeout; each retry replans against the
  /// *current* fault map, so transactions stranded by a runtime fault
  /// recover over the surviving network.
  int max_retries = 3;
  /// First retry waits this many cycles; each further retry doubles it
  /// (exponential backoff, so a congested wafer is not hammered).
  std::uint64_t retry_backoff_base = 32;
};

/// Value snapshot of the system-level counters.  The counters themselves
/// live in an obs::MetricsRegistry (system counters under "noc.", per-mesh
/// counters under "noc.xy." / "noc.yx.", round-trip latencies in the
/// "noc.latency" histogram); this struct is the stable public shape
/// assembled on demand by NocSystem::stats().
struct NocStats {
  std::uint64_t issued = 0;
  std::uint64_t completed = 0;
  std::uint64_t unreachable = 0;  ///< rejected: no plan exists
  std::uint64_t relayed = 0;
  std::uint64_t latency_sum = 0;
  std::uint64_t latency_max = 0;
  // Runtime-resilience accounting (all zero when response_timeout == 0):
  std::uint64_t timeouts = 0;      ///< round trips that missed the deadline
  std::uint64_t retries = 0;       ///< re-issues after a timeout
  std::uint64_t lost = 0;          ///< permanently lost (retries exhausted
                                   ///< or no surviving route on replan)
  std::uint64_t stale_packets = 0; ///< late arrivals of superseded attempts
  std::uint64_t replans = 0;       ///< fault-map changes applied mid-run
  std::uint64_t corrupted = 0;     ///< packets killed by injected corruption
  // Link-integrity accounting (aggregated from both meshes; all zero when
  // NocOptions::mesh.integrity is off):
  std::uint64_t crc_detected = 0;      ///< wire corruptions caught by CRC
  std::uint64_t link_retransmits = 0;  ///< hop-level NACK/retransmit events
  std::uint64_t links_retired = 0;     ///< links predictively retired
  std::uint64_t escapes = 0;           ///< corruptions the CRC aliased on
  double mean_latency() const {
    return completed ? static_cast<double>(latency_sum) / completed : 0.0;
  }
};

/// Dual-network waferscale NoC with request/response semantics.
class NocSystem {
 public:
  /// `metrics`: registry all NoC counters bind into (shared with both
  /// meshes).  When null the system owns a private registry — existing
  /// callers are unaffected.  Must outlive the NocSystem.
  NocSystem(const FaultMap& faults, const NocOptions& options = {},
            obs::MetricsRegistry* metrics = nullptr);

  /// Issues a read/write transaction.  Returns the transaction id, or
  /// nullopt when the kernel has no route (caller sees an unreachable
  /// tile) — also counted in stats().unreachable.
  std::optional<std::uint64_t> issue(TileCoord src, TileCoord dst,
                                     PacketType type,
                                     std::uint64_t payload = 0,
                                     std::uint32_t address = 0);

  /// Advances one cycle; completed transactions are appended to `done`.
  void step(std::vector<CompletedTransaction>& done);

  /// Runs until all in-flight transactions complete or `max_cycles` pass.
  /// Returns true when everything drained.
  bool drain(std::vector<CompletedTransaction>& done,
             std::uint64_t max_cycles = 1'000'000);

  /// Invoked when a request packet reaches its *final* destination tile
  /// (before the response is generated).  Used by higher layers (e.g. the
  /// message-passing runtime in wsp/arch) to observe one-way deliveries.
  using DeliveryListener = std::function<void(const Packet&)>;
  void set_delivery_listener(DeliveryListener listener) {
    delivery_listener_ = std::move(listener);
  }

  std::uint64_t now() const { return cycle_; }
  /// System-level stats.  Corruption and link-integrity counters are owned
  /// by the meshes (the layer that observes the wire) and aggregated here,
  /// so each event is counted exactly once.
  NocStats stats() const;
  /// Registry holding every NoC counter (system + both meshes): the bound
  /// one, or the internally owned fallback.
  obs::MetricsRegistry& metrics() const { return *metrics_; }
  const NetworkSelector& selector() const { return selector_; }
  const MeshNetwork& network(NetworkKind k) const {
    return k == NetworkKind::XY ? xy_ : yx_;
  }
  std::size_t inflight_transactions() const { return live_index_.size(); }
  bool is_inflight(std::uint64_t id) const {
    return live_index_.find(id) != FlatIndex::kNone;
  }
  /// Packets that are due but still wait at their source tile because its
  /// local injection FIFO is full (the injection backlog).
  std::size_t ready_injections() const { return ready_count_; }
  /// Span in cycles of the injection timing wheel: a packet scheduled this
  /// many cycles or more ahead (only a long retry backoff does that) waits
  /// in an overflow heap instead.
  static constexpr std::uint64_t kInjectionWheelSpan = 64;
  const FaultMap& faults() const { return faults_; }

  /// Adopts a new fault state mid-run (runtime fault injection): replaces
  /// the kernel's fault map, invalidates the selector's cached plans, and
  /// propagates the state to both mesh networks (purging packets stranded
  /// in dead routers).  Transactions stranded by the change recover via
  /// the timeout/retry machinery — enable options.response_timeout.
  void apply_fault_state(const FaultMap& faults, const LinkFaultSet& links);
  void apply_fault_state(const FaultMap& faults) {
    apply_fault_state(faults, links_);
  }

  /// Transient-fault model: corrupts (drops) one buffered packet at
  /// `tile`, preferring the XY network.  Returns true when a packet was
  /// killed; the owning transaction recovers via timeout + retry.
  bool inject_corruption(TileCoord tile);

  /// Stages the per-link BER map both meshes sample (takes effect only
  /// when NocOptions::mesh.integrity.enabled).  Re-call after every PDN
  /// re-solve so supply sag shows up on the wire.
  ///
  /// Defined swap semantics vs in-flight packets: the staged map is
  /// adopted at the *next cycle boundary* (the top of the following
  /// step()), never mid-cycle — so every link samples one coherent map per
  /// cycle regardless of shard/thread interleaving, and an epoch driver
  /// that calls this between steps gets an exact epoch-boundary swap.
  /// Calling it again before the next step simply replaces the staged map
  /// (last writer wins).  The grids must match (throws wsp::Error).
  void set_link_ber(const LinkBerMap& ber);
  /// Map the meshes are currently sampling (the staged map before the next
  /// cycle boundary is NOT yet visible here).
  const LinkBerMap& link_ber() const { return xy_.link_ber(); }

  /// Sums both meshes' cumulative per-tile activity counters into `out`
  /// (assigned, sized to the tile count).  Epoch-coupled drivers diff
  /// successive snapshots to get per-epoch activity.
  void accumulate_tile_activity(std::vector<TileActivity>& out) const;

  /// Predictively retires the directed link leaving `from` toward `d`:
  /// marks it failed in the LinkFaultSet, rebinds the selector (dropping
  /// every cached plan) and propagates to both meshes.  Returns false when
  /// the link leaves the array or is already retired.  Counted in
  /// stats().links_retired and stats().replans.
  bool retire_link(TileCoord from, Direction d);

  /// Detected CRC errors / traversal attempts charged to the directed link
  /// leaving `from`, summed over both meshes (LinkHealthMonitor input).
  std::uint64_t link_error_count(TileCoord from, Direction d) const;
  std::uint64_t link_traversal_count(TileCoord from, Direction d) const;

  /// Packet-conservation invariant of both meshes (see
  /// MeshNetwork::conservation_holds).
  bool packet_conservation_holds() const {
    return xy_.conservation_holds() && yx_.conservation_holds();
  }

  /// Checkpoint hooks (wsp::ckpt).  Captures the full transaction layer —
  /// live transactions, timeout deadlines, deferred and ready injections,
  /// id/sequence allocators, counters and the latency histogram — plus
  /// both meshes via their own hooks, so load + step is bit-identical to
  /// never having stopped.  The delivery listener is NOT captured (it is
  /// an arbitrary std::function); the owner re-attaches it after loading.
  /// load_state targets a system constructed over the same grid and
  /// options; mismatches throw ckpt::Error.
  void save_state(ckpt::Writer& w) const;
  void load_state(ckpt::Reader& r);

  /// Frames save_state into a "NOCS" container and writes it atomically.
  void save_checkpoint(const std::string& path) const;
  /// Loads a "NOCS" container produced by save_checkpoint into this
  /// system.  Throws ckpt::Error on any corruption or mismatch.
  void load_checkpoint(const std::string& path);

 private:
  /// One in-flight round trip, stored in the `live_` slab; a free slot
  /// has id 0 (ids start at 1).
  struct LiveTransaction {
    std::uint64_t id = 0;
    std::uint64_t payload = 0;
    std::uint64_t issue_cycle = 0;
    RoutePlan plan;
    std::uint32_t address = 0;
    std::uint32_t attempts = 0;  ///< retry generation currently in flight
    PacketType type = PacketType::ReadRequest;
    /// Current segment index; requests walk 0..n-1 forward, responses walk
    /// back.  `returning` flips at the final destination.
    std::uint8_t segment = 0;
    bool returning = false;
  };
  struct Deadline {
    std::uint64_t due_cycle;
    std::uint64_t id;
    std::uint32_t attempt;  ///< stale when != live attempt (lazy deletion)
    friend bool operator>(const Deadline& a, const Deadline& b) {
      return std::tie(a.due_cycle, a.id) > std::tie(b.due_cycle, b.id);
    }
  };
  /// A packet waiting to enter its mesh: first in a timing-wheel bucket
  /// (or the overflow heap) until it is due, then in its source tile's
  /// ready queue.  Nodes live in the shared `queued_` slab and are linked
  /// through `next`; moving a packet between lists never copies it.
  struct QueuedPacket {
    Packet packet;
    std::uint64_t seq = 0;  ///< schedule order: (due, seq) is service order
    std::uint32_t next = kNil;
  };
  /// Singly linked FIFO of queued_ nodes.
  struct PacketList {
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
  };
  /// Overflow-heap entry for a packet due kInjectionWheelSpan or more
  /// cycles after it was scheduled (and for every entry restored by
  /// load_state).
  struct FarInjection {
    std::uint64_t due_cycle;
    std::uint64_t seq;
    std::uint32_t node;
    friend bool operator>(const FarInjection& a, const FarInjection& b) {
      return std::tie(a.due_cycle, a.seq) > std::tie(b.due_cycle, b.seq);
    }
  };
  static constexpr std::uint32_t kNil = 0xffffffffu;

  /// Registry-backed system counters resolved once at construction (the
  /// meshes bind their own under "noc.xy." / "noc.yx.").
  struct Counters {
    obs::Counter* issued = nullptr;
    obs::Counter* completed = nullptr;
    obs::Counter* unreachable = nullptr;
    obs::Counter* relayed = nullptr;
    obs::Counter* timeouts = nullptr;
    obs::Counter* retries = nullptr;
    obs::Counter* lost = nullptr;
    obs::Counter* stale_packets = nullptr;
    obs::Counter* replans = nullptr;
    obs::Counter* links_retired = nullptr;
    obs::Histogram* latency = nullptr;  ///< round-trip cycles per completion
  };

  FaultMap faults_;
  LinkFaultSet links_;
  NocOptions options_;
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::MetricsRegistry* metrics_ = nullptr;
  Counters ctr_;
  NetworkSelector selector_;
  MeshNetwork xy_;
  MeshNetwork yx_;
  std::uint64_t cycle_ = 0;
  std::uint64_t next_id_ = 1;
  /// Live transactions: slab with recycled slots, id -> slot index.
  Slab<LiveTransaction> live_;
  std::vector<std::uint32_t> live_free_;
  FlatIndex live_index_;
  std::priority_queue<Deadline, std::vector<Deadline>, std::greater<>>
      deadlines_;  ///< min-heap; entries are lazily invalidated by retries

  /// Packet slab shared by the wheel, the overflow heap and the ready
  /// queues; free nodes form a list through `next`.  It grows with the
  /// number of queued packets, never with the tile count.
  Slab<QueuedPacket> queued_;
  std::uint32_t queued_free_ = kNil;
  /// Deferred injections: bucket (due % span) holds the packets due in
  /// that cycle of the coming span, appended in seq order.
  std::array<PacketList, kInjectionWheelSpan> wheel_;
  std::priority_queue<FarInjection, std::vector<FarInjection>,
                      std::greater<>> far_;  ///< overflow min-heap
  std::size_t pending_count_ = 0;  ///< wheel + far_
  std::uint64_t pending_seq_ = 0;
  /// Packets due for injection, one FIFO per (network, source tile) at
  /// index network * tiles + tile, so a full local FIFO only stalls its
  /// own tile.  `ready_bits_` marks the non-empty queues (words per
  /// network: ready_words_); step() serves them in ascending tile order,
  /// XY before YX.
  std::vector<PacketList> ready_;
  std::vector<std::uint64_t> ready_bits_;
  std::size_t ready_words_ = 0;
  std::size_t ready_count_ = 0;
  DeliveryListener delivery_listener_;
  /// Per-cycle ejection buffer, cleared (never shrunk) each step so the
  /// steady-state hot loop allocates nothing.
  std::vector<Packet> eject_scratch_;
  /// BER map staged by set_link_ber, adopted by both meshes at the top of
  /// the next step() (cycle-boundary swap; see set_link_ber).
  std::optional<LinkBerMap> staged_ber_;

  MeshNetwork& net(NetworkKind k) { return k == NetworkKind::XY ? xy_ : yx_; }
  std::size_t grid_index_of(TileCoord c) const {
    return faults_.grid().index_of(c);
  }
  void schedule(std::uint64_t due, const Packet& p);
  std::uint32_t alloc_node(const Packet& p);
  void free_node(std::uint32_t node) {
    queued_[node].next = queued_free_;
    queued_free_ = node;
  }
  void append(PacketList& list, std::uint32_t node) {
    queued_[node].next = kNil;
    if (list.tail == kNil)
      list.head = node;
    else
      queued_[list.tail].next = node;
    list.tail = node;
  }
  /// Moves a due packet into its source tile's ready queue, or drops it
  /// when that tile has died since it was scheduled.
  void make_ready(std::uint32_t node);
  void push_ready(std::size_t net, std::size_t tile, std::uint32_t node);
  /// Frees every node of a ready queue and clears its bit; returns the
  /// number of packets dropped.
  std::size_t clear_ready(std::size_t queue);
  /// Empties the wheel, the overflow heap, the ready queues and the slab.
  void reset_injections();

  LiveTransaction* find_live(std::uint64_t id) {
    const std::uint32_t slot = live_index_.find(id);
    return slot == FlatIndex::kNone ? nullptr : &live_[slot];
  }
  LiveTransaction& add_live(std::uint64_t id);
  void erase_live(std::uint64_t id);

  void handle_ejection(const Packet& p,
                       std::vector<CompletedTransaction>& done);
  void arm_deadline(std::uint64_t id, const LiveTransaction& txn,
                    std::uint64_t from_cycle);
  void process_timeouts();
  void lose_transaction(std::uint64_t id);
  static PacketType response_type(PacketType request) {
    return request == PacketType::ReadRequest ? PacketType::ReadResponse
                                              : PacketType::WriteAck;
  }
};

}  // namespace wsp::noc
