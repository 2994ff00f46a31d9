// Paper-scale wafer benchmark.
//
// Runs one of four fixed batches of simulated work on a 32x32
// SystemConfig::reduced wafer with 20 random tile faults (the campaign
// takes its faults from a 20-event schedule instead), repeats it for a
// host-time budget, checks every run's outputs, and prints one JSON line
// with the raw results (run.py turns it into the benchmark's result line).
//
//   wsp_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--trace-out <path>]
//
// Untraced mode (--trace 0) reports host-time end-to-end metrics.  Traced
// mode (--trace 1) re-drives each workload through the public calls of
// every layer (noc, workloads, cosim, pdn, resilience, exec, arch) with a
// span around each call, so the per-layer split is measured from outside
// the library.  Spans are kept in memory and written at the end as Chrome
// trace_event JSON (schemas/trace.schema.json).
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "wsp/arch/wafer_system.hpp"
#include "wsp/ckpt/checkpoint.hpp"
#include "wsp/common/config.hpp"
#include "wsp/common/fault_map.hpp"
#include "wsp/common/rng.hpp"
#include "wsp/cosim/cosim.hpp"
#include "wsp/exec/thread_pool.hpp"
#include "wsp/noc/link_integrity.hpp"
#include "wsp/noc/noc_system.hpp"
#include "wsp/obs/metrics.hpp"
#include "wsp/pdn/wafer_pdn.hpp"
#include "wsp/resilience/campaign.hpp"
#include "wsp/resilience/fault_schedule.hpp"
#include "wsp/workloads/graph.hpp"
#include "wsp/workloads/graph_apps.hpp"
#include "wsp/workloads/traffic_gen.hpp"

#ifndef WSP_PERFBENCH_BUILD_TYPE
#define WSP_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace wsp;
using Clock = std::chrono::steady_clock;

// --- batch sizes ------------------------------------------------------------
// Fixed simulated work per batch; every end-to-end host time is taken over
// repeats of exactly this batch (see Samples::report).
constexpr int kGridSide = 32;
constexpr std::size_t kInitialFaults = 20;
constexpr std::uint64_t kAllReduceCycles = 1024;
constexpr std::uint64_t kSpikingCycles = 1024;
// Three trials per pool thread at 4 threads: a 32x32 trial costs 5-7 s of
// host time depending on where its faults fall (the post-burst pair census
// and re-bring-up dominate), so the batch needs several trials for its
// total to be steady from seed to seed.
constexpr int kCampaignTrials = 12;
constexpr std::uint64_t kCampaignRunCycles = 512;
// Twelve SSSP runs per batch, each on its own graph and its own 20-fault
// wafer: how many cycles one run takes swings by +-20% with where the
// faults fall (relays around them), and a six-wafer batch still moved by
// +-12% from seed to seed.
constexpr int kGraphs = 12;
constexpr int kGraphScale = 10;
constexpr std::uint64_t kGraphEdges = 8192;
constexpr std::uint32_t kGraphMaxWeight = 8;
// Set-up time is the median of this many constructions per run.
constexpr int kSetupSamples = 41;
// Pool threads.  The cosim and graph workloads step one NocSystem, whose
// parallel sections are a barrier per cycle: on a shared host a second
// thread made them no faster (graph_sssp 1.5x slower) and made their wall
// time follow whichever vCPU a neighbour was loading.  The campaign's
// trial-level parallelism pays (about 3.5x at 4 threads) and keeps its pool.
constexpr int kSteppedWorkloadThreads = 1;
constexpr int kCampaignMaxThreads = 4;
// Host-speed probe samples (about 40 ms each) before every batch and after
// the last, 3-8% of the run on every workload: a cosim batch takes
// 0.5-1.5 s, a graph batch about 11 s and a campaign batch about 15 s.
constexpr int kProbeReps = 1;
constexpr int kGraphProbeReps = 8;
constexpr int kCampaignProbeReps = 12;
// DegradationCampaign's constructor is microseconds; one set-up sample
// times this many constructions so it is well above the clock's resolution.
constexpr int kCampaignSetupConstructions = 20000;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (const double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

// --- host-speed probe -------------------------------------------------------
// The benchmark runs on a few vCPUs of a shared machine whose speed drifts
// by up to 2x over tens of seconds (neighbours on the same caches and
// memory), so one run's raw wall time says as much about the neighbours as
// about the simulator.  A fixed reference kernel that does not touch the
// library runs between batches, and every end-to-end host time is scaled by
// kProbeNominalS / (mean probe time of the run): it is reported in seconds
// of a host that runs the probe in kProbeNominalS.  A change to the library
// leaves the probe's time alone, so it moves a scaled time by as much as the
// raw one; raw times are printed beside the scaled ones.

/// Probe time on a quiet 4-vCPU Xeon host, seconds: fixes the scale only.
constexpr double kProbeNominalS = 0.040;

class HostProbe {
 public:
  /// The probe's table, MiB: peak_rss_mb leaves it out.
  static constexpr double kTableMiB = 64.0;

  HostProbe() : table_(kWords) {
    for (std::size_t i = 0; i < table_.size(); ++i)
      table_[i] = static_cast<std::uint32_t>(i * 2654435761u);
  }

  /// Runs the reference kernel `reps` times and records each time.  It
  /// mixes memory behaviours of a simulator step: independent random
  /// updates, branchy random updates over 16 MiB and over 64 MiB, and one
  /// streaming pass.  Each of these alone tracked the simulator's drift
  /// less well than their sum.
  void sample(int reps) {
    for (int i = 0; i < reps; ++i) {
      const Clock::time_point t0 = Clock::now();
      sink_ = scatter(1000000) + update(kWords / 4, 500000) + stream() +
              update(kWords, 500000);
      times_.push_back(seconds_between(t0, Clock::now()));
    }
  }
  /// Factor from raw to scaled host time for this run (1 if never sampled).
  double scale() const {
    return times_.empty() ? 1.0 : kProbeNominalS / mean(times_);
  }
  const std::vector<double>& times() const { return times_; }

 private:
  static constexpr std::size_t kWords = std::size_t{1} << 24;  // 64 MiB
  std::vector<std::uint32_t> table_;
  std::vector<double> times_;
  volatile std::uint64_t sink_ = 0;

  static std::uint64_t lcg(std::uint64_t x) {
    return x * 6364136223846793005ull + 1442695040888963407ull;
  }
  /// Independent read-modify-writes at random words of the whole table.
  std::uint64_t scatter(int ops) {
    std::uint64_t x = 0x13198a2e03707344ull;
    for (int i = 0; i < ops; ++i) {
      x = lcg(x);
      table_[(x >> 37) & (kWords - 1)] += static_cast<std::uint32_t>(x);
    }
    return table_[x & (kWords - 1)];
  }
  /// Random read-modify-writes over the first `words` words with a
  /// data-dependent branch on every word read.
  std::uint64_t update(std::size_t words, int ops) {
    std::uint64_t x = 0x243f6a8885a308d3ull, acc = 0;
    for (int i = 0; i < ops; ++i) {
      x = lcg(x);
      std::uint32_t& e = table_[(x >> 37) & (words - 1)];
      acc += e;
      e ^= static_cast<std::uint32_t>(x >> 11);
      if (e & 1) acc = acc * 3 + 1;
    }
    return acc + x;
  }
  /// One sequential read-modify-write pass over the table.
  std::uint64_t stream() {
    for (std::uint32_t& e : table_) e = e * 3 + 1;
    return table_[kWords / 2];
  }
};

// --- seeds ------------------------------------------------------------------
// Every input is derived from the one seed argument through independent
// splitmix64 streams, so the fault map, generator, graph and campaign draw
// from unrelated sequences.
enum Stream : std::uint64_t {
  kFaultStream = 1,
  kGeneratorStream = 2,
  kGraphStream = 3,
  kCampaignStream = 4,
};

std::uint64_t derive_seed(std::uint64_t seed, Stream stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// --- host fingerprint -------------------------------------------------------

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  unsigned int max_leaf = __get_cpuid_max(0x80000000u, nullptr);
  if (max_leaf >= 0x80000004u) {
    for (unsigned int i = 0; i < 3; ++i)
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const auto b = s.find_first_not_of(' ');
    const auto e = s.find_last_not_of(' ');
    return b == std::string::npos ? "unknown" : s.substr(b, e - b + 1);
  }
#endif
  return "unknown";
}

std::string compiler_id() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string fmt_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// --- spans ------------------------------------------------------------------
// The traced run records one span around each call into a layer: name,
// start, end and the span that caused it.  Spans of one batch share the
// batch's root span.  Kept in memory, written once at the end.

class SpanLog {
 public:
  SpanLog() : origin_(Clock::now()) {}

  int open(const char* name, int parent) {
    spans_.push_back({name, parent, now_ns(), 0});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id) { spans_[static_cast<std::size_t>(id)].end_ns = now_ns(); }

  std::size_t size() const { return spans_.size(); }

  /// Summed duration of every span called `name` recorded at index `first`
  /// or later, milliseconds.
  double total_ms(const char* name, std::size_t first = 0) const {
    std::int64_t ns = 0;
    for (std::size_t i = first; i < spans_.size(); ++i)
      if (std::strcmp(spans_[i].name, name) == 0)
        ns += spans_[i].end_ns - spans_[i].start_ns;
    return static_cast<double>(ns) * 1e-6;
  }
  double duration_ms(int id) const {
    const Span& s = spans_[static_cast<std::size_t>(id)];
    return static_cast<double>(s.end_ns - s.start_ns) * 1e-6;
  }

  /// Chrome trace_event JSON ("X" complete events, microseconds); the
  /// span id and its parent's id and name ride in `args`.
  std::string chrome_json() const {
    std::ostringstream o;
    o << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (i) o << ',';
      o << "{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":0,\"tid\":0"
        << ",\"ts\":" << fmt_number(static_cast<double>(s.start_ns) * 1e-3)
        << ",\"dur\":"
        << fmt_number(static_cast<double>(std::max<std::int64_t>(
                          s.end_ns - s.start_ns, 0)) *
                      1e-3)
        << ",\"args\":{\"id\":\"" << i << "\",\"parent_id\":\""
        << (s.parent < 0 ? std::string("none") : std::to_string(s.parent))
        << "\",\"parent\":\""
        << (s.parent < 0 ? "" : spans_[static_cast<std::size_t>(s.parent)].name)
        << "\"}}";
    }
    o << "]}";
    return o.str();
  }

 private:
  struct Span {
    const char* name;
    int parent;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };
  Clock::time_point origin_;
  std::vector<Span> spans_;

  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }
};

/// Runs `f` inside one span and returns the span's duration, ms.
template <class F>
double timed_span(SpanLog& log, const char* name, int parent, F&& f) {
  const int id = log.open(name, parent);
  f();
  log.close(id);
  return log.duration_ms(id);
}

class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name, int parent)
      : log_(log), id_(log.open(name, parent)) {}
  ~ScopedSpan() { log_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  SpanLog& log_;
  int id_;
};

// --- results ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Check {
  std::string name;
  bool ok;
  std::string detail;
};

struct Result {
  int attempted = 0;
  int failed = 0;
  std::vector<double> wall_samples;   ///< every run's raw wall time, seconds
  std::vector<double> probe_samples;  ///< every host-probe time, seconds
  double host_scale = 1.0;            ///< raw-to-scaled host time factor
  std::vector<Check> checks;
  std::vector<Metric> metrics;

  void check(const std::string& name, bool ok, const std::string& detail = "") {
    checks.push_back({name, ok, detail});
  }
  void metric(const std::string& name, double value, const std::string& unit) {
    for (Metric& m : metrics)
      if (m.name == name) {
        m.value = value;
        m.unit = unit;
        return;
      }
    metrics.push_back({name, value, unit});
  }
};

/// Per-run raw samples of the end-to-end metrics (one entry per batch run;
/// set-up has its own samples, see sample_setup).
struct Samples {
  std::vector<double> wall_s, setup_s, sim_cycles, txns;

  void add(double wall, double batch_sim_cycles, double batch_txns) {
    wall_s.push_back(wall);
    sim_cycles.push_back(batch_sim_cycles);
    txns.push_back(batch_txns);
  }
  /// Times `construct` kSetupSamples times (each sample divided by
  /// `per_sample` constructions).
  template <class F>
  void sample_setup(F&& construct, int per_sample = 1) {
    for (int i = 0; i < kSetupSamples; ++i) {
      const Clock::time_point t0 = Clock::now();
      for (int k = 0; k < per_sample; ++k) construct();
      setup_s.push_back(seconds_between(t0, Clock::now()) / per_sample);
    }
  }
  /// Reports the host times scaled by the run's probe (see HostProbe):
  /// a batch's wall time is the mean over the run's batches, so it sets
  /// the whole run's batch time against the whole run's probe time.
  void report(Result& r, const HostProbe& probe) const {
    const double scale = probe.scale();
    const double wall = mean(wall_s) * scale;
    r.wall_samples = wall_s;
    r.probe_samples = probe.times();
    r.host_scale = scale;
    r.metric("wall_s", wall, "s");
    r.metric("sim_cycles_per_s", mean(sim_cycles) / wall, "1/s");
    r.metric("txns_per_s", mean(txns) / wall, "1/s");
    r.metric("setup_s", median(setup_s) * scale, "s");
    r.metric("peak_rss_mb", peak_rss_mb() - HostProbe::kTableMiB, "MB");
  }
};

/// The per-layer metric set every traced run prints (zero where the
/// workload does not exercise that layer from the benchmark's side).
void declare_per_layer(Result& r) {
  const std::pair<const char*, const char*> names[] = {
      {"workloads.emit_ms", "ms"},
      {"workloads.injections", "count"},
      {"noc.issue_ms", "ms"},
      {"noc.issue_ns_per_txn", "ns"},
      {"noc.step_ms", "ms"},
      {"noc.step_us_per_cycle", "us"},
      {"noc.flit_hops", "count"},
      {"noc.step_ns_per_flit_hop", "ns"},
      {"noc.issued", "count"},
      {"noc.completed", "count"},
      {"noc.lost", "count"},
      {"noc.inflight_end", "count"},
      {"noc.retransmits", "count"},
      {"noc.relayed", "count"},
      {"noc.sim_p50_cycles", "cycles"},
      {"noc.sim_p99_cycles", "cycles"},
      {"cosim.harvest_ms", "ms"},
      {"cosim.power_map_ms", "ms"},
      {"cosim.ber_ms", "ms"},
      {"cosim.epochs", "count"},
      {"cosim.driver_other_ms", "ms"},
      {"pdn.solve_ms", "ms"},
      {"pdn.solves", "count"},
      {"pdn.iterations_per_solve", "count"},
      {"pdn.ms_per_solve", "ms"},
      {"resilience.trial_ms_p50", "ms"},
      {"resilience.trial_ms_max", "ms"},
      {"resilience.fault_free_trial_ms", "ms"},
      {"resilience.fault_ms_per_event", "ms"},
      {"resilience.events", "count"},
      {"resilience.recovery_cycles_max", "cycles"},
      {"resilience.retries", "count"},
      {"resilience.replans", "count"},
      {"exec.threads", "count"},
      {"exec.trial_busy_s", "s"},
      {"exec.parallel_efficiency", "ratio"},
      {"exec.slowest_trial_share", "ratio"},
      {"arch.run_ms", "ms"},
      {"arch.messages_delivered", "count"},
      {"arch.handler_invocations", "count"},
      {"arch.ns_per_message", "ns"},
      {"arch.sim_makespan_cycles", "cycles"},
      {"arch.core_utilization", "ratio"},
      {"trace.overhead_share", "ratio"},
  };
  for (const auto& [name, unit] : names) r.metric(name, 0.0, unit);
}

/// Runs `batch` until the budget is spent: at least `min_runs` runs, then
/// another only while it is expected to finish inside `budget_s`.  A run
/// that throws or fails an output check counts as failed; `batch` returns
/// false for a failed check.  With a probe, `probe_reps` probe samples are
/// taken before every run and after the last.
void repeat_for(double budget_s, int min_runs, Result& r,
                const std::function<bool()>& batch,
                HostProbe* probe = nullptr, int probe_reps = 0) {
  const Clock::time_point t0 = Clock::now();
  double last = 0.0;
  for (int i = 0;; ++i) {
    const double elapsed = seconds_between(t0, Clock::now());
    if (i >= min_runs && elapsed + last > budget_s) break;
    if (probe) probe->sample(probe_reps);
    const Clock::time_point a = Clock::now();
    ++r.attempted;
    try {
      if (!batch()) ++r.failed;
    } catch (const std::exception& e) {
      ++r.failed;
      r.check("run_threw", false, e.what());
    }
    last = seconds_between(a, Clock::now());
  }
  if (probe) probe->sample(probe_reps);
}

std::uint32_t crc_of(const std::vector<std::uint8_t>& bytes) {
  return ckpt::crc32(bytes.data(), bytes.size());
}

/// Records whether every run produced the same digest.
void check_repeat_digest(Result& r, const std::vector<std::uint32_t>& digests) {
  const bool same = std::all_of(digests.begin(), digests.end(),
                                [&](std::uint32_t d) { return d == digests[0]; });
  char buf[32];
  std::snprintf(buf, sizeof buf, "%08x", digests.empty() ? 0u : digests[0]);
  r.check("report_digest_identical_across_runs", !digests.empty() && same,
          std::string("digest ") + buf + " over " +
              std::to_string(digests.size()) + " runs");
}

// --- cosim workloads ----------------------------------------------------------

/// CosimLoop settings of examples/workload_mix (link integrity and the
/// voltage->BER coupling on), with the class and epoch length per workload.
cosim::CosimOptions cosim_options(const std::string& workload,
                                  const SystemConfig& config,
                                  std::uint64_t seed) {
  cosim::CosimOptions o;
  o.config = config;
  o.seed = derive_seed(seed, kGeneratorStream);
  o.noc.mesh.integrity.enabled = true;
  o.pdn.ldo.line_regulation = 0.1;
  o.ber.floor_ber = 1e-6;
  o.ber.volts_per_decade = 0.003;
  o.workload.seed = derive_seed(seed, kGeneratorStream);
  if (workload == "cosim_allreduce") {
    o.epoch_cycles = 64;
    o.workload.cls = workloads::WorkloadClass::AllReduceRing;
    o.workload.allreduce.chunk_packets = 4;
    o.workload.allreduce.step_cycles = 8;
    o.workload.allreduce.gap_cycles = 16;
  } else {
    o.epoch_cycles = 4;
    o.workload.cls = workloads::WorkloadClass::SpikingBurst;
    o.workload.spiking.background_rate = 0.002;
    o.workload.spiking.burst_interval = 128;
    o.workload.spiking.hotspot = {kGridSide / 2, kGridSide / 2};
    o.workload.spiking.burst_radius = 3;
    o.workload.spiking.burst_cycles = 48;
    o.workload.spiking.burst_intensity = 0.6;
  }
  return o;
}

/// The accounting identity every cosim run must end with.
bool noc_accounting_holds(const noc::NocSystem& noc) {
  const noc::NocStats s = noc.stats();
  return s.issued == s.completed + s.lost + noc.inflight_transactions() &&
         noc.packet_conservation_holds();
}

std::uint64_t total_flit_hops(const noc::NocSystem& noc) {
  std::vector<noc::TileActivity> act;
  noc.accumulate_tile_activity(act);
  std::uint64_t hops = 0;
  for (const noc::TileActivity& a : act) hops += a.traversals;
  return hops;
}

/// The CosimLoop re-driven from the public calls of each layer, a span
/// around every call.  Returns the report bytes, which must equal
/// serialize_report(CosimLoop::report()) of the untraced run.
struct CosimReplica {
  std::vector<std::uint8_t> report_bytes;
  std::uint64_t injections = 0;
  std::uint64_t issued_calls = 0;
  std::uint64_t pdn_solves = 0;
  std::uint64_t pdn_iterations = 0;
  bool accounting_ok = false;
};

CosimReplica run_cosim_replica(const cosim::CosimOptions& o,
                               const FaultMap& faults, std::uint64_t cycles,
                               SpanLog& log, int root) {
  CosimReplica out;
  const TileGrid& grid = faults.grid();
  obs::MetricsRegistry metrics;
  noc::NocSystem noc(faults, o.noc, &metrics);
  pdn::WaferPdn pdn(o.config, o.pdn);
  pdn.bind_metrics(&metrics);
  std::unique_ptr<workloads::TrafficGenerator> gen =
      workloads::make_generator(o.workload, o.config, faults);
  cosim::ActivityTracker tracker;
  std::vector<std::vector<double>> seeds(2), power_maps(2);
  power_maps[1] = cosim::activity_power_map(
      std::vector<noc::TileActivity>(grid.tile_count()), faults,
      o.config.tile_peak_power_w, o.epoch_cycles, o.scale);
  std::vector<cosim::EpochReport> epochs;
  std::vector<workloads::Injection> buf;
  std::vector<noc::CompletedTransaction> done;
  std::uint64_t cycle_in_epoch = 0;

  for (std::uint64_t c = 0; c < cycles; ++c) {
    buf.clear();
    {
      ScopedSpan s(log, "workloads.emit", root);
      gen->emit(buf);
    }
    out.injections += buf.size();
    {
      ScopedSpan s(log, "noc.issue", root);
      for (const workloads::Injection& inj : buf) {
        if (inj.dst == inj.src) continue;
        (void)noc.issue(inj.src, inj.dst, inj.type, inj.payload);
        ++out.issued_calls;
      }
    }
    done.clear();
    {
      ScopedSpan s(log, "noc.step", root);
      noc.step(done);
    }
    if (++cycle_in_epoch < o.epoch_cycles) continue;
    cycle_in_epoch = 0;

    ScopedSpan epoch_span(log, "cosim.epoch", root);
    const int ep = epoch_span.id();
    cosim::EpochReport e;
    e.epoch = epochs.size();
    e.end_cycle = noc.now();
    const std::vector<noc::TileActivity>* delta = nullptr;
    {
      ScopedSpan s(log, "cosim.harvest", ep);
      delta = &tracker.harvest(noc);
    }
    for (const noc::TileActivity& a : *delta) {
      e.injections += a.injections;
      e.traversals += a.traversals;
      e.retransmits += a.retransmits;
    }
    {
      ScopedSpan s(log, "cosim.power_map", ep);
      power_maps[0] = cosim::activity_power_map(*delta, faults,
                                                o.config.tile_peak_power_w,
                                                o.epoch_cycles, o.scale);
    }
    for (const double p : power_maps[0]) e.total_power_w += p;
    std::vector<pdn::SolveStats> stats;
    std::vector<pdn::PdnReport> reports;
    {
      ScopedSpan s(log, "pdn.solve", ep);
      reports = pdn.solve_batch_warm(power_maps, seeds, &stats);
    }
    ++out.pdn_solves;
    out.pdn_iterations += static_cast<std::uint64_t>(stats[0].iterations);
    const pdn::PdnReport& coupled = reports[0];
    const pdn::PdnReport& baseline = reports[1];
    e.min_supply_v = coupled.min_supply_v;
    e.coupled_iterations = stats[0].iterations;
    std::vector<double> regulated(grid.tile_count(), 0.0);
    double min_reg = std::numeric_limits<double>::infinity();
    double excess = 0.0;
    for (std::size_t i = 0; i < regulated.size(); ++i) {
      regulated[i] = coupled.tiles[i].regulated_v;
      min_reg = std::min(min_reg, regulated[i]);
      excess = std::max(excess,
                        baseline.tiles[i].supply_v - coupled.tiles[i].supply_v);
    }
    e.min_regulated_v = regulated.empty() ? 0.0 : min_reg;
    e.max_excess_droop_v = excess;
    if (o.noc.mesh.integrity.enabled) {
      ScopedSpan s(log, "cosim.ber", ep);
      const noc::LinkBerMap ber =
          noc::LinkBerMap::from_tile_voltages(grid, regulated, o.ber);
      double sum = 0.0;
      std::size_t links = 0;
      grid.for_each([&](TileCoord t) {
        for (Direction d : kAllDirections) {
          if (!grid.contains(step(t, d))) continue;
          const double b = ber.ber(t, d);
          sum += b;
          e.max_ber = std::max(e.max_ber, b);
          ++links;
        }
      });
      e.mean_ber = links ? sum / static_cast<double>(links) : 0.0;
      noc.set_link_ber(ber);
    }
    epochs.push_back(e);
  }

  cosim::CosimReport rep;
  rep.epochs = epochs;
  rep.noc_stats = noc.stats();
  rep.cycles = noc.now();
  rep.worst_min_supply_v = std::numeric_limits<double>::infinity();
  for (const cosim::EpochReport& e : epochs) {
    rep.worst_min_supply_v = std::min(rep.worst_min_supply_v, e.min_supply_v);
    rep.worst_excess_droop_v =
        std::max(rep.worst_excess_droop_v, e.max_excess_droop_v);
    rep.peak_mean_ber = std::max(rep.peak_mean_ber, e.mean_ber);
  }
  if (epochs.empty()) rep.worst_min_supply_v = 0.0;
  out.report_bytes = cosim::serialize_report(rep);
  out.accounting_ok = noc_accounting_holds(noc);
  return out;
}

void run_cosim(const std::string& workload, std::uint64_t seed, double budget,
               bool trace, SpanLog& log, Result& r) {
  const SystemConfig config = SystemConfig::reduced(kGridSide, kGridSide);
  Rng fault_rng(derive_seed(seed, kFaultStream));
  const FaultMap faults =
      FaultMap::random_with_count(config.grid(), kInitialFaults, fault_rng);
  const cosim::CosimOptions o = cosim_options(workload, config, seed);
  const std::uint64_t cycles =
      workload == "cosim_allreduce" ? kAllReduceCycles : kSpikingCycles;
  const char* root_name = workload == "cosim_allreduce" ? "cosim_allreduce"
                                                        : "cosim_spiking_fine";

  Samples samples;
  std::vector<std::uint32_t> digests;
  std::vector<std::uint8_t> last_bytes;
  bool accounting_ok = true;
  double last_loop_ms = 0.0;
  noc::NocStats stats;
  noc::TrafficReport latency;
  std::uint64_t inflight = 0, flit_hops = 0, epochs = 0;

  // One untraced CosimLoop run of the batch.
  const auto untraced = [&] {
    const Clock::time_point t0 = Clock::now();
    cosim::CosimLoop loop(o, faults);
    const Clock::time_point t1 = Clock::now();
    loop.run(cycles);
    const Clock::time_point t2 = Clock::now();
    const noc::NocStats s = loop.noc().stats();
    samples.add(seconds_between(t0, t2), static_cast<double>(loop.now()),
                static_cast<double>(s.completed));
    last_loop_ms = seconds_between(t1, t2) * 1e3;
    last_bytes = cosim::serialize_report(loop.report());
    digests.push_back(crc_of(last_bytes));
    const bool ok = noc_accounting_holds(loop.noc());
    accounting_ok = accounting_ok && ok;
    stats = s;
    latency = loop.latency_summary();
    inflight = loop.noc().inflight_transactions();
    flit_hops = total_flit_hops(loop.noc());
    epochs = loop.epochs_completed();
    return ok;
  };

  if (!trace) {
    HostProbe probe;
    samples.sample_setup([&] { const cosim::CosimLoop loop(o, faults); });
    repeat_for(budget, 3, r, untraced, &probe, kProbeReps);
    check_repeat_digest(r, digests);
    r.check("noc_accounting_and_packet_conservation", accounting_ok,
            "issued == completed + lost + inflight, packet_conservation_holds()");
    samples.report(r, probe);
    return;
  }

  // Traced run: each untraced CosimLoop run is followed by the same batch
  // re-driven layer by layer, so host-speed drift hits both sides of a
  // pair alike; every per-layer time is the median over pairs.
  const char* const layers[] = {"workloads.emit", "noc.issue",     "noc.step",
                                "cosim.harvest",  "cosim.power_map",
                                "cosim.ber",      "pdn.solve"};
  constexpr std::size_t kLayers = sizeof(layers) / sizeof(layers[0]);
  std::vector<double> layer_ms[kLayers], other_ms, overhead;
  bool match = true, replica_accounting = true;
  CosimReplica rep;
  repeat_for(budget / 2, 1, r, [&] {
    const bool ok = untraced();
    const std::size_t first = log.size();
    const Clock::time_point t0 = Clock::now();
    {
      ScopedSpan root(log, root_name, -1);
      rep = run_cosim_replica(o, faults, cycles, log, root.id());
    }
    overhead.push_back(seconds_between(t0, Clock::now()) /
                           samples.wall_s.back() -
                       1.0);
    double spans = 0.0;
    for (std::size_t i = 0; i < kLayers; ++i) {
      layer_ms[i].push_back(log.total_ms(layers[i], first));
      spans += layer_ms[i].back();
    }
    other_ms.push_back(last_loop_ms - spans);
    const bool same = rep.report_bytes == last_bytes;
    match = match && same;
    replica_accounting = replica_accounting && rep.accounting_ok;
    return ok && same && rep.accounting_ok;
  });
  check_repeat_digest(r, digests);
  r.check("noc_accounting_and_packet_conservation",
          accounting_ok && replica_accounting,
          "issued == completed + lost + inflight, packet_conservation_holds()");
  r.check("traced_replica_matches_cosimloop_report", match,
          match ? "serialize_report bytes identical"
                : "traced replica diverged from CosimLoop; per-layer "
                  "numbers withheld");
  if (!match) return;

  declare_per_layer(r);
  const double emit = median(layer_ms[0]), issue = median(layer_ms[1]),
               step = median(layer_ms[2]), solve = median(layer_ms[6]);
  const double cyc = static_cast<double>(cycles);
  r.metric("workloads.emit_ms", emit, "ms");
  r.metric("workloads.injections", static_cast<double>(rep.injections), "count");
  r.metric("noc.issue_ms", issue, "ms");
  r.metric("noc.issue_ns_per_txn",
           rep.issued_calls ? issue * 1e6 / static_cast<double>(rep.issued_calls)
                            : 0.0,
           "ns");
  r.metric("noc.step_ms", step, "ms");
  r.metric("noc.step_us_per_cycle", step * 1e3 / cyc, "us");
  r.metric("noc.flit_hops", static_cast<double>(flit_hops), "count");
  r.metric("noc.step_ns_per_flit_hop",
           flit_hops ? step * 1e6 / static_cast<double>(flit_hops) : 0.0, "ns");
  r.metric("noc.issued", static_cast<double>(stats.issued), "count");
  r.metric("noc.completed", static_cast<double>(stats.completed), "count");
  r.metric("noc.lost", static_cast<double>(stats.lost), "count");
  r.metric("noc.inflight_end", static_cast<double>(inflight), "count");
  r.metric("noc.retransmits", static_cast<double>(stats.link_retransmits),
           "count");
  r.metric("noc.relayed", static_cast<double>(stats.relayed), "count");
  r.metric("noc.sim_p50_cycles", static_cast<double>(latency.p50_latency),
           "cycles");
  r.metric("noc.sim_p99_cycles", static_cast<double>(latency.p99_latency),
           "cycles");
  r.metric("cosim.harvest_ms", median(layer_ms[3]), "ms");
  r.metric("cosim.power_map_ms", median(layer_ms[4]), "ms");
  r.metric("cosim.ber_ms", median(layer_ms[5]), "ms");
  r.metric("cosim.epochs", static_cast<double>(epochs), "count");
  r.metric("cosim.driver_other_ms", median(other_ms), "ms");
  r.metric("pdn.solve_ms", solve, "ms");
  r.metric("pdn.solves", static_cast<double>(rep.pdn_solves), "count");
  r.metric("pdn.iterations_per_solve",
           rep.pdn_solves ? static_cast<double>(rep.pdn_iterations) /
                                static_cast<double>(rep.pdn_solves)
                          : 0.0,
           "count");
  r.metric("pdn.ms_per_solve",
           rep.pdn_solves ? solve / static_cast<double>(rep.pdn_solves) : 0.0,
           "ms");
  r.metric("exec.threads", exec::shared_threads(), "count");
  r.metric("trace.overhead_share", median(overhead), "ratio");
}

// --- campaign workload ------------------------------------------------------

resilience::CampaignOptions campaign_options(const SystemConfig& config,
                                             std::uint64_t seed) {
  resilience::CampaignOptions o;
  o.config = config;
  o.seed = derive_seed(seed, kCampaignStream);
  // The wafer leaves assembly fault-free and takes its faults from the
  // 20-event schedule.  Assembly faults on top (20 tiles) doubled a
  // trial's host time and made it swing 9-22 s with their positions,
  // through the post-burst pair census and the re-bring-up.
  o.initial_fault_probability = 0.0;
  o.mix.tile_deaths = 4;
  o.mix.link_failures = 4;
  o.mix.ldo_brownouts = 4;
  o.mix.clock_gen_losses = 0;
  o.mix.packet_corruptions = 4;
  o.mix.link_ber_degradations = 4;
  o.run_cycles = kCampaignRunCycles;
  o.fault_horizon = kCampaignRunCycles * 3 / 4;
  o.noc.mesh.integrity.enabled = true;
  o.cosim_epoch_cycles = 64;
  o.workload.cls = workloads::WorkloadClass::LayerPipeline;
  o.workload.seed = derive_seed(seed, kGeneratorStream);
  o.workload.pipeline.stages = 4;
  o.workload.pipeline.comm_cycles = 8;
  o.workload.pipeline.stage_flops = 2.0e5;
  return o;
}

std::vector<std::uint8_t> report_bytes(const resilience::DegradationReport& d) {
  ckpt::Writer w;
  resilience::save_report(w, d);
  return w.bytes();
}

/// After a drained trial every issued transaction completed or was lost.
bool trial_accounting_holds(const resilience::DegradationReport& d) {
  const noc::NocStats& s = d.noc_stats;
  return d.drained ? s.issued == s.completed + s.lost
                   : s.issued >= s.completed + s.lost;
}

void run_campaign(std::uint64_t seed, double budget, bool trace, SpanLog& log,
                  Result& r) {
  const resilience::CampaignOptions o = campaign_options(
      SystemConfig::reduced(kGridSide, kGridSide), seed);

  Samples samples;
  std::vector<std::uint32_t> digests;
  std::vector<resilience::DegradationReport> reports;
  bool accounting_ok = true;
  HostProbe probe;
  if (!trace)
    samples.sample_setup(
        [&] { const resilience::DegradationCampaign campaign(o); },
        kCampaignSetupConstructions);
  const auto batch = [&] {
    const Clock::time_point t1 = Clock::now();
    const resilience::DegradationCampaign campaign(o);
    reports = campaign.run_trials(kCampaignTrials);
    const Clock::time_point t2 = Clock::now();
    double cycles = 0.0, txns = 0.0;
    ckpt::Writer all;
    bool ok = true;
    for (const resilience::DegradationReport& d : reports) {
      cycles += static_cast<double>(d.total_cycles);
      txns += static_cast<double>(d.noc_stats.completed);
      resilience::save_report(all, d);
      ok = ok && trial_accounting_holds(d);
    }
    samples.add(seconds_between(t1, t2), cycles, txns);
    digests.push_back(crc_of(all.bytes()));
    accounting_ok = accounting_ok && ok;
    return ok;
  };
  if (trace)
    repeat_for(0.0, 1, r, batch);
  else
    repeat_for(budget, 2, r, batch, &probe, kCampaignProbeReps);
  check_repeat_digest(r, digests);
  r.check("trial_noc_accounting", accounting_ok,
          "drained trials: issued == completed + lost");
  if (!trace) {
    samples.report(r, probe);
    return;
  }
  if (reports.size() != static_cast<std::size_t>(kCampaignTrials)) return;

  // Traced run: every trial again, one at a time on a one-thread pool
  // (the way each pool worker runs its trials inside run_trials), one span
  // each; then the first trial with an explicit empty schedule as the
  // fault-free base.
  declare_per_layer(r);
  const int threads = exec::shared_threads();
  exec::set_shared_threads(1);
  const resilience::DegradationCampaign campaign(o);
  std::vector<double> trial_ms;
  bool invariant = true;
  {
    ScopedSpan root(log, "campaign_pipeline", -1);
    for (int t = 0; t < kCampaignTrials; ++t) {
      std::vector<resilience::DegradationReport> one;
      trial_ms.push_back(timed_span(log, "resilience.trial", root.id(), [&] {
        one = campaign.run_trial_range(t, 1);
      }));
      invariant = invariant &&
                  report_bytes(one[0]) ==
                      report_bytes(reports[static_cast<std::size_t>(t)]);
    }
  }
  r.check("run_trials_equals_serial_trials", invariant,
          "run_trials reports at " + std::to_string(threads) +
              " threads == run_trial_range(t,1) reports at 1 thread");

  resilience::CampaignOptions free_o = o;
  free_o.schedule = resilience::FaultSchedule{};
  const double free_ms =
      timed_span(log, "resilience.fault_free_trial", -1,
                 [&] { (void)resilience::DegradationCampaign(free_o).run(); });
  // Tracing cost: the fault-free trial once more, without a span.
  const Clock::time_point u0 = Clock::now();
  (void)resilience::DegradationCampaign(free_o).run();
  const double untraced_free_ms = seconds_between(u0, Clock::now()) * 1e3;
  exec::set_shared_threads(threads);

  std::uint64_t events = 0, recovery_max = 0, retries = 0, replans = 0;
  noc::NocStats sum;
  for (const resilience::DegradationReport& d : reports) {
    events += d.events.size();
    for (const resilience::EventOutcome& e : d.events)
      recovery_max = std::max(recovery_max, e.recovery_cycles);
    retries += d.noc_stats.retries;
    replans += d.noc_stats.replans;
    sum.issued += d.noc_stats.issued;
    sum.completed += d.noc_stats.completed;
    sum.lost += d.noc_stats.lost;
    sum.relayed += d.noc_stats.relayed;
    sum.link_retransmits += d.noc_stats.link_retransmits;
  }
  double busy_ms = 0.0;
  for (const double t : trial_ms) busy_ms += t;
  const double busy_s = busy_ms * 1e-3;
  const double parallel_s = median(samples.wall_s);
  r.metric("noc.issued", static_cast<double>(sum.issued), "count");
  r.metric("noc.completed", static_cast<double>(sum.completed), "count");
  r.metric("noc.lost", static_cast<double>(sum.lost), "count");
  r.metric("noc.relayed", static_cast<double>(sum.relayed), "count");
  r.metric("noc.retransmits", static_cast<double>(sum.link_retransmits), "count");
  r.metric("resilience.trial_ms_p50", median(trial_ms), "ms");
  r.metric("resilience.trial_ms_max",
           *std::max_element(trial_ms.begin(), trial_ms.end()), "ms");
  r.metric("resilience.fault_free_trial_ms", free_ms, "ms");
  r.metric("resilience.fault_ms_per_event",
           events ? (busy_ms - kCampaignTrials * free_ms) /
                        static_cast<double>(events)
                  : 0.0,
           "ms");
  r.metric("resilience.events", static_cast<double>(events), "count");
  r.metric("resilience.recovery_cycles_max", static_cast<double>(recovery_max),
           "cycles");
  r.metric("resilience.retries", static_cast<double>(retries), "count");
  r.metric("resilience.replans", static_cast<double>(replans), "count");
  r.metric("exec.threads", threads, "count");
  r.metric("exec.trial_busy_s", busy_s, "s");
  r.metric("exec.parallel_efficiency", busy_s / (threads * parallel_s), "ratio");
  r.metric("exec.slowest_trial_share",
           *std::max_element(trial_ms.begin(), trial_ms.end()) * 1e-3 /
               parallel_s,
           "ratio");
  r.metric("trace.overhead_share", free_ms / untraced_free_ms - 1.0, "ratio");
}

// --- graph workload ---------------------------------------------------------

/// The cheapest handler WaferSystem accepts: used to time the runtime's
/// own construction apart from the application.
class IdleHandler : public arch::TileHandler {
 public:
  void on_message(arch::TileContext&, const arch::Message&) override {}
};

void run_graph(std::uint64_t seed, double budget, bool trace, SpanLog& log,
               Result& r) {
  const SystemConfig config = SystemConfig::reduced(kGridSide, kGridSide);
  Rng fault_rng(derive_seed(seed, kFaultStream));
  Rng graph_rng(derive_seed(seed, kGraphStream));
  std::vector<FaultMap> faults;
  std::vector<workloads::Graph> graphs;
  std::vector<std::vector<std::uint32_t>> oracles;
  const std::uint32_t source = 0;
  for (int i = 0; i < kGraphs; ++i) {
    faults.push_back(
        FaultMap::random_with_count(config.grid(), kInitialFaults, fault_rng));
    graphs.push_back(workloads::make_rmat_graph(kGraphScale, kGraphEdges,
                                                kGraphMaxWeight, graph_rng));
    oracles.push_back(workloads::reference_sssp(graphs.back(), source));
  }
  const auto run_one = [&](int i) {
    const std::size_t k = static_cast<std::size_t>(i);
    return workloads::run_graph_app(config, faults[k], graphs[k], source, true);
  };

  const auto build_runtime = [&] {
    const workloads::VertexPartition partition(graphs[0], faults[0]);
    const arch::WaferSystem system(config, faults[0], [](TileCoord) {
      return std::make_unique<IdleHandler>();
    });
  };

  Samples samples;
  std::vector<std::uint32_t> digests;
  bool oracle_ok = true;
  std::vector<workloads::GraphAppResult> last(kGraphs);
  const auto summarize = [&](std::vector<workloads::GraphAppResult>& res,
                             double wall) {
    double cycles = 0, messages = 0;
    ckpt::Writer d;
    bool ok = true;
    for (int i = 0; i < kGraphs; ++i) {
      const workloads::GraphAppResult& g = res[static_cast<std::size_t>(i)];
      cycles += static_cast<double>(g.stats.cycles);
      messages += static_cast<double>(g.stats.messages_delivered);
      for (const std::uint32_t v : g.distance) d.u32(v);
      d.u64(g.stats.cycles);
      d.u64(g.stats.makespan);
      d.u64(g.stats.messages_delivered);
      d.u64(g.stats.handler_invocations);
      ok = ok && g.quiesced &&
           g.distance == oracles[static_cast<std::size_t>(i)];
    }
    samples.add(wall, cycles, messages);
    digests.push_back(crc_of(d.bytes()));
    oracle_ok = oracle_ok && ok;
    return ok;
  };
  const auto untraced = [&] {
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < kGraphs; ++i)
      last[static_cast<std::size_t>(i)] = run_one(i);
    return summarize(last, seconds_between(t0, Clock::now()));
  };
  const auto report_checks = [&] {
    check_repeat_digest(r, digests);
    r.check("sssp_distances_equal_reference_sssp", oracle_ok,
            "run_graph_app distances == reference_sssp, quiesced");
  };

  if (!trace) {
    HostProbe probe;
    samples.sample_setup(build_runtime);
    repeat_for(budget, 2, r, untraced, &probe, kGraphProbeReps);
    report_checks();
    samples.report(r, probe);
    return;
  }

  // Traced run: untraced and traced batches alternate (see run_cosim).
  std::vector<double> run_ms, overhead;
  bool same = true;
  repeat_for(budget / 2, 1, r, [&] {
    const bool ok = untraced();
    const double untraced_s = samples.wall_s.back();
    std::vector<workloads::GraphAppResult> traced(kGraphs);
    double ms = 0.0;
    {
      ScopedSpan root(log, "graph_sssp", -1);
      timed_span(log, "arch.runtime_setup", root.id(), build_runtime);
      for (int i = 0; i < kGraphs; ++i)
        ms += timed_span(log, "arch.run_graph_app", root.id(), [&] {
          traced[static_cast<std::size_t>(i)] = run_one(i);
        });
    }
    run_ms.push_back(ms);
    overhead.push_back(ms * 1e-3 / untraced_s - 1.0);
    bool match = true;
    for (int i = 0; i < kGraphs; ++i) {
      const std::size_t k = static_cast<std::size_t>(i);
      match = match && traced[k].distance == last[k].distance &&
              traced[k].stats.cycles == last[k].stats.cycles;
    }
    same = same && match;
    return ok && match;
  });
  report_checks();
  r.check("traced_run_matches_untraced", same);

  declare_per_layer(r);
  double messages = 0, invocations = 0, makespan = 0, utilization = 0;
  for (const workloads::GraphAppResult& g : last) {
    messages += static_cast<double>(g.stats.messages_delivered);
    invocations += static_cast<double>(g.stats.handler_invocations);
    makespan += static_cast<double>(g.stats.makespan);
    utilization += g.stats.mean_core_utilization / kGraphs;
  }
  const double ms = median(run_ms);
  r.metric("arch.run_ms", ms, "ms");
  r.metric("arch.messages_delivered", messages, "count");
  r.metric("arch.handler_invocations", invocations, "count");
  r.metric("arch.ns_per_message", messages ? ms * 1e6 / messages : 0.0, "ns");
  r.metric("arch.sim_makespan_cycles", makespan, "cycles");
  r.metric("arch.core_utilization", utilization, "ratio");
  r.metric("exec.threads", exec::shared_threads(), "count");
  r.metric("trace.overhead_share", median(overhead), "ratio");
}

// --- main -------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end) return false;
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (*end || !(a.seconds > 0)) return false;
    } else if (k == "--trace") {
      if (v != "0" && v != "1") return false;
      a.trace = v == "1";
    } else if (k == "--trace-out") {
      a.trace_out = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty();
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: wsp_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--trace-out <path>]\n");
    return 2;
  }
  const std::string& wl = args.workload;
  if (wl != "cosim_allreduce" && wl != "cosim_spiking_fine" &&
      wl != "campaign_pipeline" && wl != "graph_sssp") {
    std::fprintf(stderr, "unknown workload '%s'\n", wl.c_str());
    return 2;
  }

  const int nproc =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  exec::set_shared_threads(wl == "campaign_pipeline"
                               ? std::min(kCampaignMaxThreads, nproc)
                               : kSteppedWorkloadThreads);
  (void)exec::shared_pool();  // build the pool before anything is timed

  SpanLog log;
  Result r;
  try {
    if (wl == "campaign_pipeline")
      run_campaign(args.seed, args.seconds, args.trace, log, r);
    else if (wl == "graph_sssp")
      run_graph(args.seed, args.seconds, args.trace, log, r);
    else
      run_cosim(wl, args.seed, args.seconds, args.trace, log, r);
  } catch (const std::exception& e) {
    ++r.attempted;
    ++r.failed;
    r.check("workload_threw", false, e.what());
  }

  if (args.trace && !args.trace_out.empty()) {
    std::ofstream f(args.trace_out);
    f << log.chrome_json() << '\n';
    r.check("trace_written", static_cast<bool>(f), args.trace_out);
  }

  std::ostringstream o;
  o << "{\"workload\":\"" << wl << "\",\"seed\":" << args.seed
    << ",\"trace\":" << (args.trace ? 1 : 0) << ",\"host\":{\"cpu\":\""
    << json_escape(cpu_model()) << "\",\"nproc\":" << nproc
    << ",\"pool_threads\":" << exec::shared_threads() << ",\"compiler\":\""
    << json_escape(compiler_id()) << "\",\"build_type\":\""
    << WSP_PERFBENCH_BUILD_TYPE << "\"},\"attempted\":" << r.attempted
    << ",\"failed\":" << r.failed << ",\"wall_samples_s\":[";
  for (std::size_t i = 0; i < r.wall_samples.size(); ++i)
    o << (i ? "," : "") << fmt_number(r.wall_samples[i]);
  o << "],\"probe_samples_s\":[";
  for (std::size_t i = 0; i < r.probe_samples.size(); ++i)
    o << (i ? "," : "") << fmt_number(r.probe_samples[i]);
  o << "],\"host_scale\":" << fmt_number(r.host_scale) << ",\"checks\":[";
  for (std::size_t i = 0; i < r.checks.size(); ++i) {
    const Check& c = r.checks[i];
    o << (i ? "," : "") << "{\"name\":\"" << c.name
      << "\",\"ok\":" << (c.ok ? "true" : "false") << ",\"detail\":\""
      << json_escape(c.detail) << "\"}";
  }
  o << "],\"metrics\":{";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    o << (i ? "," : "") << "\"" << m.name << "\":{\"value\":"
      << fmt_number(m.value) << ",\"unit\":\"" << m.unit << "\"}";
  }
  o << "}}";
  std::printf("%s\n", o.str().c_str());
  return 0;
}
