// Layer probes for the tibsim host-cost benchmark (perfbench/run.py).
//
// Everything here calls tibsim's public API from outside the library and
// times those calls; nothing inside src/ is instrumented. Three subcommands:
//
//   perfbench_probe suite
//       Print the paper_suite workload's experiments, one per line: every
//       registered experiment except ablation_armv8_bigcluster.
//
//   perfbench_probe setup --worlds FAMILY:NODES,... --reps K [--shards S]
//       Build and tear down each listed cluster world with a no-op rank body,
//       K times. Prints {"reps": [seconds, ...]}.
//       This is the benchmark's setup_s: topology, fabric, fiber stacks and
//       rank spawn, with none of the workload's simulated work.
//
//   perfbench_probe trace --experiments A,B,... --jobs J --shards S
//                         --seed N --out DIR
//       The traced run: the workload's campaign in-process with spans around
//       each layer call, a cold and a warm result-cache pass over the paper
//       suite, then kRounds rounds of the layer probes. Prints one JSON
//       object with the per-layer metrics, the spread of every repeated
//       probe and any failed check; writes the spans to DIR/spans.json.
//
// FAMILY is "tibidabo" (the paper's 192-node machine, NODES of it in use)
// or "tegra2" (ClusterSpec::tibidaboScaled(NODES)).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "tibsim/apps/hpl.hpp"
#include "tibsim/cluster/cluster.hpp"
#include "tibsim/common/json.hpp"
#include "tibsim/common/rng.hpp"
#include "tibsim/core/campaign.hpp"
#include "tibsim/core/experiment.hpp"
#include "tibsim/core/result_cache.hpp"
#include "tibsim/mpi/simmpi.hpp"
#include "tibsim/net/fabric.hpp"
#include "tibsim/obs/trace_sink.hpp"
#include "tibsim/sim/shard_scheduler.hpp"
#include "tibsim/sim/simulation.hpp"

namespace {

namespace fs = std::filesystem;
using namespace tibsim;
using Clock = std::chrono::steady_clock;
using json::Value;

double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

template <typename Fn>
double timed(Fn&& fn) {
  const auto start = Clock::now();
  fn();
  return secondsSince(start);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Interquartile range as a percentage of the median (Python's
/// statistics.quantiles "exclusive" method, n = 4).
double iqrPercent(std::vector<double> v) {
  const double mid = median(v);
  if (v.size() < 2 || mid == 0.0) return 0.0;
  std::sort(v.begin(), v.end());
  const auto quantile = [&](double p) {
    const double pos = p * static_cast<double>(v.size() + 1) - 1.0;
    const double clamped =
        std::clamp(pos, 0.0, static_cast<double>(v.size() - 1));
    const auto lo = static_cast<std::size_t>(clamped);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (clamped - static_cast<double>(lo)) * (v[hi] - v[lo]);
  };
  return 100.0 * (quantile(0.75) - quantile(0.25)) / mid;
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

std::vector<std::string> splitList(const std::string& text) {
  std::vector<std::string> out;
  std::stringstream in(text);
  for (std::string item; std::getline(in, item, ',');)
    if (!item.empty()) out.push_back(item);
  return out;
}

// ---------------------------------------------------------------- spans ----

/// In-memory span log: one record per timed layer call, written out once
/// at the end of the traced run.
class SpanLog {
 public:
  int open(const std::string& name, int parent) {
    spans_.push_back({name, parent, secondsSince(origin_), -1.0});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id) {
    spans_[static_cast<std::size_t>(id)].end = secondsSince(origin_);
  }
  double duration(int id) const {
    const Span& s = spans_[static_cast<std::size_t>(id)];
    return s.end - s.start;
  }
  /// A span whose start the benchmark cannot see (e.g. one experiment
  /// inside runCampaign): kept with its measured duration only.
  void addDuration(const std::string& name, int parent, double seconds) {
    spans_.push_back({name, parent, -1.0, seconds});
  }
  Value toJson() const {
    Value out = Value::array();
    for (const Span& s : spans_) {
      Value v = Value::object();
      v["name"] = s.name;
      v["parent"] = s.parent;
      if (s.start >= 0.0) {
        v["start_s"] = s.start;
        v["end_s"] = s.end;
      } else {
        v["duration_s"] = s.end;
      }
      out.push(std::move(v));
    }
    return out;
  }

 private:
  struct Span {
    std::string name;
    int parent;
    double start;
    double end;
  };
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

/// RAII span: open on construction, close on stop() or destruction.
class Scope {
 public:
  Scope(SpanLog& log, const std::string& name, int parent = -1)
      : log_(log), id_(log.open(name, parent)) {}
  ~Scope() {
    if (!stopped_) log_.close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int id() const { return id_; }
  /// Close the span now and return its duration in seconds.
  double stop() {
    log_.close(id_);
    stopped_ = true;
    return log_.duration(id_);
  }

 private:
  SpanLog& log_;
  int id_;
  bool stopped_ = false;
};

// ---------------------------------------------------------------- suite ----

/// The 8,192-rank experiment no workload runs: one run takes half a minute.
constexpr const char* kBigCluster = "ablation_armv8_bigcluster";

/// The paper's figures and tables: every registered experiment but the
/// bigcluster one, sorted by name.
std::vector<std::string> paperSuite() {
  std::vector<std::string> names = core::ExperimentRegistry::global().names();
  std::erase(names, kBigCluster);
  return names;
}

// --------------------------------------------------------------- worlds ----

struct WorldSpec {
  std::string family;
  int nodes = 0;
};

cluster::ClusterSpec familySpec(const std::string& family, int nodes) {
  if (family == "tibidabo") return cluster::ClusterSpec::tibidabo();
  if (family == "tegra2") return cluster::ClusterSpec::tibidaboScaled(nodes);
  throw std::runtime_error("unknown world family: " + family);
}

std::vector<WorldSpec> parseWorlds(const std::string& text) {
  std::vector<WorldSpec> worlds;
  for (const std::string& item : splitList(text)) {
    const std::size_t colon = item.find(':');
    if (colon == std::string::npos)
      throw std::runtime_error("world must be FAMILY:NODES: " + item);
    worlds.push_back({item.substr(0, colon), std::stoi(item.substr(colon + 1))});
    familySpec(worlds.back().family, 8);  // reject unknown families early
  }
  if (worlds.empty()) throw std::runtime_error("no worlds given");
  return worlds;
}

constexpr int kStackProbeNodes = 8;

/// The per-rank fiber stack the experiments would pick:
/// autoFiberStackBytes over an 8-node weak-scaled HPL probe, as
/// scale_bigcluster does.
std::size_t probeStackBytes() {
  const cluster::ClusterSpec spec =
      cluster::ClusterSpec::tibidaboScaled(kStackProbeNodes);
  apps::HplBenchmark::Params params;
  params.n = apps::HplBenchmark::problemSizeForNodes(spec, kStackProbeNodes,
                                                     0.02);
  params.nb = 512;
  return cluster::autoFiberStackBytes(spec, kStackProbeNodes,
                                      apps::HplBenchmark::rankBody(params));
}

/// Build, run with a no-op body, and tear down one world.
void noopWorld(const WorldSpec& world, std::size_t stackBytes) {
  cluster::ClusterSimulation sim(familySpec(world.family, world.nodes));
  cluster::JobOptions options;
  options.fiberStackBytes = stackBytes;
  sim.runJob(world.nodes, [](mpi::MpiContext&) {}, options);
}

// --------------------------------------------------------------- probes ----

using mpi::MpiContext;

/// Seconds for one MpiWorld::run of `body` on `ranks` Tegra 2 node ranks.
double worldSeconds(mpi::WorldConfig cfg, int ranks, bool traced,
                    const mpi::MpiWorld::RankBody& body) {
  mpi::MpiWorld world(std::move(cfg), ranks);
  if (traced) world.enableTracing();
  return timed([&] { world.run(body); });
}

mpi::MpiWorld::RankBody pingPong(int reps, std::size_t payloadBytes,
                                 bool wildcard) {
  return [=](MpiContext& ctx) {
    const std::vector<std::byte> payload(payloadBytes, std::byte{0x5a});
    const std::size_t bytes = payloadBytes > 0 ? payloadBytes : 64;
    const mpi::Communicator comm = ctx.commWorld();
    const int peer = 1 - ctx.rank();
    for (int i = 0; i < reps; ++i) {
      if (ctx.rank() == 1) {
        if (wildcard)
          comm.recv(mpi::kAnySource, mpi::kAnyTag);
        else
          comm.recv(peer, 7);
      }
      comm.send(peer, 7, bytes, payload);
      if (ctx.rank() == 0) {
        if (wildcard)
          comm.recv(mpi::kAnySource, mpi::kAnyTag);
        else
          comm.recv(peer, 7);
      }
    }
  };
}

struct ProbeSet {
  int pingPongReps = 20000;
  int rawSwitches = 100000;
  int iallreduceReps = 2000;
  int wireCalls = 200000;
  std::uint64_t seed = 1;

  /// Every probe once, in a fixed order; each entry is seconds per op.
  std::map<std::string, double> round() const {
    std::map<std::string, double> s;
    const mpi::WorldConfig tegra = mpi::WorldConfig::tibidaboNode();
    const auto perRoundTrip = [&](const mpi::WorldConfig& cfg, bool traced,
                                  std::size_t payloadBytes, bool wildcard) {
      return worldSeconds(cfg, 2, traced,
                          pingPong(pingPongReps, payloadBytes, wildcard)) /
             pingPongReps;
    };

    sim::Simulation raw;
    const int n = rawSwitches;
    raw.spawn("spinner", [n](sim::Process& p) {
      for (int i = 0; i < n; ++i) p.delay(1e-6);
    });
    const double rawSeconds = timed([&] { raw.run(); });
    s["switch"] = rawSeconds /
                  static_cast<double>(raw.engineStats().contextSwitches);

    s["pingpong"] = perRoundTrip(tegra, false, 0, false);
    s["pingpong64"] = perRoundTrip(tegra, false, 64, false);
    s["pingpong4k"] = perRoundTrip(tegra, false, 4096, false);
    s["wildcard"] = perRoundTrip(tegra, false, 0, true);

    const int iar = iallreduceReps;
    s["iallreduce8"] =
        worldSeconds(tegra, 8, false, [iar](MpiContext& ctx) {
          const mpi::Communicator comm = ctx.commWorld();
          const double mine[1] = {static_cast<double>(ctx.rank())};
          for (int i = 0; i < iar; ++i)
            comm.waitDoubles(comm.iallreduce(std::span<const double>(mine, 1)));
        }) /
        iar;

    // Observability: the size-only ping-pong with link telemetry off, on
    // (the campaign default), and on plus each span-recording mode.
    mpi::WorldConfig quiet = tegra;
    quiet.linkTelemetry = false;
    s["obs.off"] = perRoundTrip(quiet, false, 0, false);
    s["obs.links"] = perRoundTrip(tegra, false, 0, false);
    for (const obs::TraceMode mode :
         {obs::TraceMode::Aggregate, obs::TraceMode::Sampled,
          obs::TraceMode::Full}) {
      mpi::WorldConfig cfg = tegra;
      cfg.traceMode = mode;
      s[std::string("obs.") + obs::toString(mode)] =
          perRoundTrip(cfg, true, 0, false);
    }

    // Fabric::scheduleWire over seeded node pairs of the 192-node tree,
    // one 1500-byte frame submitted every simulated microsecond.
    for (const bool telemetry : {false, true}) {
      net::TopologySpec topo;
      topo.nodes = 192;
      topo.nodesPerLeafSwitch = 48;
      net::Fabric fabric(topo, telemetry);
      Rng rng(seed);
      std::vector<int> ends(2 * static_cast<std::size_t>(wireCalls));
      for (int& end : ends)
        end = static_cast<int>(rng.nextBelow(192));
      double lastArrival = 0.0;
      const double seconds = timed([&] {
        for (std::size_t i = 0; i < ends.size(); i += 2)
          if (ends[i] != ends[i + 1])
            lastArrival = fabric.scheduleWire(ends[i], ends[i + 1], 1500.0,
                                              1e-6 * static_cast<double>(i / 2));
      });
      if (lastArrival <= 0.0) throw std::runtime_error("no wire scheduled");
      s[telemetry ? "wire.on" : "wire.off"] = seconds / wireCalls;
    }
    return s;
  }
};

// ------------------------------------------------------------ commands ----

struct Args {
  std::map<std::string, std::string> values;
  std::string get(const std::string& key, const std::string& fallback) const {
    const auto it = values.find(key);
    return it == values.end() ? fallback : it->second;
  }
  std::string need(const std::string& key) const {
    const auto it = values.find(key);
    if (it == values.end()) throw std::runtime_error("missing --" + key);
    return it->second;
  }
};

Args parseArgs(int argc, char** argv) {
  Args args;
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag.rfind("--", 0) != 0 || i + 1 >= argc)
      throw std::runtime_error("bad argument: " + flag);
    args.values[flag.substr(2)] = argv[++i];
  }
  return args;
}

int setupCommand(const Args& args) {
  const std::vector<WorldSpec> worlds = parseWorlds(args.need("worlds"));
  const int reps = std::stoi(args.need("reps"));
  sim::ScopedSimShards shards(std::stoi(args.get("shards", "1")));
  // Stack sizing runs real HPL probes, which is simulated work, so it
  // happens once before the timed repetitions.
  const std::size_t stack = probeStackBytes();
  Value times = Value::array();
  for (int r = 0; r < reps; ++r)
    times.push(timed([&] {
      for (const WorldSpec& w : worlds) noopWorld(w, stack);
    }));
  Value out = Value::object();
  out["reps"] = std::move(times);
  std::printf("%s\n", out.dump().c_str());
  return 0;
}

void writeFile(const fs::path& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  if (!out) throw std::runtime_error("cannot write " + path.string());
}

/// Interleaved rounds of the layer probes in a traced run.
constexpr int kRounds = 7;

int traceCommand(const Args& args) {
  const fs::path outDir = args.need("out");
  fs::create_directories(outDir);
  const std::uint64_t seed = std::stoull(args.need("seed"));
  SpanLog spans;
  Value metrics = Value::object();
  Value spread = Value::object();
  Value problems = Value::array();
  const auto put = [&](const std::string& name, double value) {
    metrics[name] = value;
  };

  // --- core/sim/shard/mpi/net/obs/cluster: the workload, traced ----------
  core::CampaignOptions options;
  options.patterns = splitList(args.need("experiments"));
  options.jobs = std::stoi(args.need("jobs"));
  options.simShards = std::stoi(args.need("shards"));
  options.seed = seed;
  options.jsonDir = (outDir / "traced").string();
  options.summary = false;
  std::ostringstream sink;
  core::CampaignResult campaign;
  {
    Scope span(spans, "core.runCampaign");
    campaign = core::runCampaign(options, sink);
    put("traced_wall_s", span.stop());
    for (const core::ExperimentRun& run : campaign.runs)
      spans.addDuration("core.experiment." + run.name, span.id(),
                        run.wallSeconds);
  }

  sim::EngineStats engine;
  obs::RunCounters counters;
  double expSum = 0.0;
  double expMax = 0.0;
  std::map<std::string, double> expSeconds;
  for (const core::ExperimentRun& run : campaign.runs) {
    engine.accumulate(run.engine);
    counters.accumulate(run.counters);
    expSum += run.wallSeconds;
    expMax = std::max(expMax, run.wallSeconds);
    expSeconds[run.name] = run.wallSeconds;
  }
  const auto events = static_cast<double>(engine.eventsDispatched);
  const auto switches = static_cast<double>(engine.contextSwitches);
  put("sim.events", events);
  put("sim.switches", switches);
  put("sim.host_s", engine.hostSeconds);
  put("sim.ns_per_event", ratio(engine.hostSeconds * 1e9, events));
  put("sim.queue_hwm", static_cast<double>(engine.queueHighWater));
  put("sim.peak_procs", static_cast<double>(engine.peakLiveProcesses));

  const auto windows = static_cast<double>(engine.shardWindows);
  const auto barriers = static_cast<double>(engine.shardBarrierCalls);
  const auto skips = static_cast<double>(engine.shardBarrierSkips);
  put("shard.windows", windows);
  put("shard.parallel_frac",
      ratio(static_cast<double>(engine.shardParallelWindows), windows));
  put("shard.ev_per_window", engine.eventsPerShardWindow());
  put("shard.barrier_s", engine.shardBarrierHostSeconds);
  put("shard.barrier_frac",
      ratio(engine.shardBarrierHostSeconds, engine.hostSeconds));
  put("shard.merged_records", static_cast<double>(engine.shardMergeRecords));
  put("shard.skip_frac", ratio(skips, barriers + skips));

  const auto messages = static_cast<double>(counters.messages);
  const auto reuses = static_cast<double>(counters.payloadPoolReuses);
  const auto allocations = static_cast<double>(counters.payloadPoolAllocations);
  put("mpi.messages", messages);
  put("mpi.switches_per_msg", ratio(switches, messages));
  put("mpi.pool.reuse_frac", ratio(reuses, reuses + allocations));
  put("mpi.pool.allocations", allocations);
  put("mpi.pool.live_hwm",
      static_cast<double>(counters.payloadPoolLiveHighWater));
  put("net.transfers", static_cast<double>(counters.links.transfers()));
  put("net.wire_bytes", counters.wireBytes);
  put("obs.spans_recorded", static_cast<double>(counters.spansRecorded));
  put("obs.trace_kib",
      static_cast<double>(counters.traceMemoryPeakBytes) / 1024.0);

  for (const char* name :
       {"fig06", "scale_bigcluster", "energy_to_solution", "hpl_green500",
        "hydro_async", "imb_suite", "taskfarm"})
    put(std::string("core.exp_s.") + name, expSeconds[name]);
  put("core.critical_exp_s", expMax);
  put("core.jobs_efficiency",
      ratio(expSum, static_cast<double>(campaign.jobs) * campaign.wallSeconds));
  put("cluster.stack_kib", static_cast<double>(engine.fiberStackBytes) / 1024.0);
  put("cluster.stack_hwm_kib",
      static_cast<double>(engine.stackHighWaterBytes) / 1024.0);

  // --- core: artefact emission, re-rendered from the campaign's results ---
  {
    Scope span(spans, "core.emit");
    const fs::path emitDir = outDir / "emit";
    fs::create_directories(emitDir);
    for (const core::ExperimentRun& run : campaign.runs) {
      const core::Experiment* experiment =
          core::ExperimentRegistry::global().find(run.name);
      const std::string doc = core::resultDocument(
          *experiment, core::experimentSeed(seed, run.name), run.results,
          run.engine.eventsDispatched > 0 ? &run.engine : nullptr,
          run.counters.worlds > 0 ? &run.counters : nullptr);
      writeFile(emitDir / (run.name + ".json"), doc);
      if (doc != run.json)
        problems.push("resultDocument re-render differs for " + run.name);
    }
    put("core.emit_s", span.stop());
  }

  // --- core: result cache, cold then warm pass over the paper suite ------
  {
    Scope span(spans, "core.cache");
    const fs::path cacheRoot = outDir / "cache";
    fs::remove_all(cacheRoot);
    core::CampaignOptions cached;
    cached.patterns = paperSuite();
    cached.jobs = 4;
    cached.seed = seed;
    cached.summary = false;
    cached.cacheDir = (cacheRoot / "campaign").string();
    core::CampaignResult cold;
    {
      Scope pass(spans, "core.cache.cold", span.id());
      cold = core::runCampaign(cached, sink);
    }
    core::CampaignResult warm;
    double warmSeconds = 0.0;
    {
      Scope pass(spans, "core.cache.warm", span.id());
      warm = core::runCampaign(cached, sink);
      warmSeconds = pass.stop();
    }
    for (std::size_t i = 0; i < cold.runs.size(); ++i)
      if (warm.runs[i].json != cold.runs[i].json)
        problems.push("cache replay differs for " + cold.runs[i].name);
    // ResultCache::store of the cold pass's runs into a fresh directory.
    const core::ResultCache direct((cacheRoot / "direct").string());
    double storeSeconds = 0.0;
    {
      Scope store(spans, "core.cache.store", span.id());
      for (const core::ExperimentRun& run : cold.runs) {
        core::CachedRun entry;
        entry.cells = run.cells;
        entry.engine = run.engine;
        entry.counters = run.counters;
        entry.resultJson = run.json;
        direct.store(run.name, "perfbench", entry);
      }
      storeSeconds = store.stop();
    }
    put("core.cache.store_ms", storeSeconds * 1e3);
    put("core.cache.load_ms", warmSeconds * 1e3);
    put("core.cache.hit_frac",
        ratio(static_cast<double>(warm.cacheHits),
              static_cast<double>(warm.cacheHits + warm.cacheMisses)));
  }

  // --- mpi / cluster: world set-up and stack probing ---------------------
  {
    // The largest world any workload builds: scale_bigcluster's 1,500-node,
    // 3,000-rank reliability job.
    const WorldSpec largest{"tegra2", 1500};
    sim::ScopedSimShards shards(options.simShards);
    std::vector<double> setup;
    std::size_t stack = 0;
    {
      Scope span(spans, "cluster.autoFiberStackBytes");
      stack = probeStackBytes();
      put("cluster.stack_probe_s", span.stop());
    }
    for (int r = 0; r < 5; ++r) {
      Scope span(spans, "mpi.world_setup");
      noopWorld(largest, stack);
      setup.push_back(span.stop());
    }
    put("mpi.world_setup_s", median(setup));
    spread["mpi.world_setup_s"] = iqrPercent(setup);
  }

  // --- probes, interleaved rounds ----------------------------------------
  ProbeSet probes;
  probes.seed = seed;
  std::map<std::string, std::vector<double>> samples;
  {
    Scope span(spans, "probes");
    for (int r = 0; r < kRounds; ++r) {
      Scope round(spans, "probes.round", span.id());
      const std::map<std::string, double> s = probes.round();
      for (const auto& [name, value] : s) samples[name].push_back(value);
      // Taxes are paired within a round so a load burst hits both sides.
      const auto pct = [&](const char* on, const char* off) {
        return 100.0 * (s.at(on) / s.at(off) - 1.0);
      };
      samples["tax.telemetry"].push_back(pct("wire.on", "wire.off"));
      samples["tax.links"].push_back(pct("obs.links", "obs.off"));
      samples["tax.aggregate"].push_back(pct("obs.aggregate", "obs.links"));
      samples["tax.sampled"].push_back(pct("obs.sampled", "obs.links"));
      samples["tax.full"].push_back(pct("obs.full", "obs.links"));
    }
  }
  const auto probeMetric = [&](const std::string& metric,
                               const std::string& sample, double scale) {
    std::vector<double> v = samples.at(sample);
    for (double& x : v) x *= scale;
    put(metric, median(v));
    spread[metric] = iqrPercent(v);
  };
  probeMetric("sim.probe.switch_ns", "switch", 1e9);
  probeMetric("mpi.probe.pingpong_ns", "pingpong", 1e9);
  probeMetric("mpi.probe.pingpong64_ns", "pingpong64", 1e9);
  probeMetric("mpi.probe.pingpong4k_ns", "pingpong4k", 1e9);
  probeMetric("mpi.probe.wildcard_ns", "wildcard", 1e9);
  probeMetric("mpi.probe.iallreduce8_us", "iallreduce8", 1e6);
  probeMetric("net.probe.schedule_wire_ns", "wire.on", 1e9);
  // The tax is the change in ns per wire reservation; the ping-pong carries
  // the same telemetry cost per message.
  probeMetric("net.probe.telemetry_tax_pct", "tax.telemetry", 1.0);
  probeMetric("obs.probe.tax_aggregate_pct", "tax.aggregate", 1.0);
  probeMetric("obs.probe.tax_sampled_pct", "tax.sampled", 1.0);
  probeMetric("obs.probe.tax_full_pct", "tax.full", 1.0);

  writeFile(outDir / "spans.json", spans.toJson().dump(1) + "\n");
  Value out = Value::object();
  out["metrics"] = std::move(metrics);
  out["spread_pct"] = std::move(spread);
  out["problems"] = std::move(problems);
  out["rounds"] = kRounds;
  std::printf("%s\n", out.dump().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // runCampaign's --procs workers re-invoke /proc/self/exe with "run".
  if (argc > 1 && std::string(argv[1]) == "run")
    return core::socbenchMain(argc, argv);
  try {
    const std::string command = argc > 1 ? argv[1] : "";
    if (command == "suite") {
      for (const std::string& name : paperSuite())
        std::printf("%s\n", name.c_str());
      return 0;
    }
    if (command == "setup") return setupCommand(parseArgs(argc, argv));
    if (command == "trace") return traceCommand(parseArgs(argc, argv));
    std::fprintf(stderr,
                 "usage: %s suite | setup|trace --flag value ... (see file "
                 "header)\n",
                 argv[0]);
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_probe: %s\n", e.what());
    return 1;
  }
}
