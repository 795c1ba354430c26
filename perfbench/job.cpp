// perfbench_job: runs one piece of the repository benchmark per process.
//
// perfbench/run.py drives this binary one child process at a time, so a
// HYP_CHECK panic inside a job costs that job (counted as failed) and never
// the benchmark run. Modes:
//
//   list   the workload's jobs, one JSON line each
//   ref    inputs + serial references for every job (the set-up work)
//   job    one job: the layer call, then verification against --expect
//   probe  host cost of single public calls into each layer, at the
//          workload's own cluster preset, node count and page size
//
// Every job is defined here from (workload, seed) alone; run.py never builds
// inputs itself. Output is one JSON object per line on stdout.
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "apps/asp.hpp"
#include "apps/barnes.hpp"
#include "apps/jacobi.hpp"
#include "apps/pi.hpp"
#include "apps/tsp.hpp"
#include "cluster/trace.hpp"
#include "common/cli.hpp"
#include "dsm/access.hpp"
#include "obs/heat.hpp"
#include "obs/phase.hpp"
#include "serve/serve.hpp"
#include "sim/engine.hpp"

namespace {

using namespace hyp;
using Clock = std::chrono::steady_clock;

double secs_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --- JSON output -------------------------------------------------------------

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n') ? ' ' : c;
  }
  return out + "\"";
}

// Accumulates the members of one JSON object.
class Obj {
 public:
  Obj& raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ",") + quoted(key) + ":" + json;
    return *this;
  }
  Obj& str(const std::string& key, const std::string& v) { return raw(key, quoted(v)); }
  Obj& f(const std::string& key, double v) { return raw(key, num(v)); }
  Obj& u(const std::string& key, std::uint64_t v) { return raw(key, std::to_string(v)); }
  Obj& b(const std::string& key, bool v) { return raw(key, v ? "true" : "false"); }
  std::string json() const { return "{" + body_ + "}"; }
  void print() const { std::printf("%s\n", json().c_str()); }

 private:
  std::string body_;
};

std::string hist_json(const Log2Histogram& h) {
  std::string buckets;
  for (int i = 0; i < Log2Histogram::kBuckets; ++i) {
    if (h.bucket(i) == 0) continue;
    buckets += (buckets.empty() ? "" : ",") + ("[" + std::to_string(i) + "," +
                                               std::to_string(h.bucket(i)) + "]");
  }
  return Obj()
      .u("count", h.count())
      .u("min", h.empty() ? 0 : h.min())
      .u("max", h.empty() ? 0 : h.max())
      .raw("buckets", "[" + buckets + "]")
      .json();
}

// --- spans (recorded only when --spans 1) ------------------------------------

// The benchmark's own spans inside a job process, in microseconds since the
// process's first clock read; run.py re-bases them under its job span.
class Spans {
 public:
  explicit Spans(bool on) : on_(on), t0_(Clock::now()) {}
  template <typename Fn>
  void time(const std::string& name, Fn&& fn) {
    const double start = us();
    fn();
    if (on_) spans_.push_back(Obj().str("name", name).f("start_us", start).f("end_us", us()).json());
  }
  std::string json() const {
    std::string out;
    for (const auto& s : spans_) out += (out.empty() ? "" : ",") + s;
    return "[" + out + "]";
  }

 private:
  double us() const { return std::chrono::duration<double, std::micro>(Clock::now() - t0_).count(); }
  bool on_;
  Clock::time_point t0_;
  std::vector<std::string> spans_;
};

// --- workload definitions -----------------------------------------------------

constexpr const char* kPreset = "myri200";

// Problem sizes for paper_figs: the five §4.1 programs scaled so that one
// pass over all 30 jobs takes a few host seconds, every job still dominated
// by its get/put kernel. pi and jacobi have no random input; barnes, tsp and
// asp draw theirs from the seed.
constexpr std::int64_t kPiIntervals = 2'000'000;
constexpr int kJacobiN = 256;
constexpr int kJacobiSteps = 40;
constexpr int kBarnesBodies = 2048;
constexpr int kBarnesSteps = 2;
constexpr int kTspCities = 11;
constexpr int kAspN = 256;
constexpr int kFigNodes[] = {2, 8};

// Serve cells mirror bench/serve's cell construction, so every failing cell
// has an equivalent bench/serve command line (see repro()). The rate-ladder
// cells run 2000 ops per client so that per-op work, not process and VM
// start-up, dominates their host time; the fault cells keep bench/serve's
// default 400 ops, the length its fault windows were laid out for.
constexpr int kServeNodes = 4;
constexpr std::uint64_t kLadderOps = 2000;
constexpr std::uint64_t kFaultOps = 400;
constexpr double kServeRates[] = {1000, 2000, 4000, 8000, 16000};
constexpr int kServeSubSeeds = 2;
constexpr int kFaultSubSeeds = 3;
constexpr double kFaultRate = 4000;
constexpr const char* kFaultProfiles[] = {"crash", "partition", "hot"};
constexpr const char* kCrashWindow = "crash1@20ms+10ms";
constexpr const char* kPartitionWindow = "20ms+8ms";
constexpr int kReplicas = 2;

constexpr dsm::ProtocolKind kProtocols[] = {
    dsm::ProtocolKind::kJavaIc, dsm::ProtocolKind::kJavaPf, dsm::ProtocolKind::kHybrid};

struct Job {
  std::string id;
  std::string app;      // pi | jacobi | barnes | tsp | asp | serve
  std::string input;    // jobs with equal `input` share one serial reference
  std::string profile;  // serve: none | skew | crash | partition | hot
  dsm::ProtocolKind protocol = dsm::ProtocolKind::kJavaPf;
  int nodes = 0;
  std::uint64_t input_seed = 0;
  serve::ServeParams sp;
};

bool is_workload(const std::string& w) {
  return w == "paper_figs" || w == "serve_read" || w == "serve_write" || w == "serve_faults";
}

// Sub-seed i of a run: each --seed owns a disjoint block of the single-seed
// space, so consecutive benchmark seeds sweep consecutive cell seeds.
std::uint64_t sub_seed(std::uint64_t seed, int i, int per_seed) {
  return seed * static_cast<std::uint64_t>(per_seed) + static_cast<std::uint64_t>(i);
}

serve::ServeParams serve_params(const std::string& profile, std::uint64_t seed, double rate,
                                std::uint64_t ops) {
  serve::ServeParams sp;
  sp.theta = 0.99;
  sp.ops_per_client = ops;
  sp.rate_ops_per_s = rate;
  sp.seed = seed;
  if (profile == "skew" || profile == "hot") {
    sp.writer_node = 1;
    sp.read_pct = 10;
  }
  return sp;
}

std::vector<Job> workload_jobs(const std::string& workload, std::uint64_t seed) {
  std::vector<Job> jobs;
  auto add = [&](Job j, const std::string& cell) {
    for (auto kind : kProtocols) {
      j.protocol = kind;
      j.id = cell + "/" + dsm::protocol_name(kind);
      jobs.push_back(j);
    }
  };
  if (workload == "paper_figs") {
    for (const char* app : {"pi", "jacobi", "barnes", "tsp", "asp"}) {
      for (int nodes : kFigNodes) {
        Job j;
        j.app = app;
        j.nodes = nodes;
        j.input_seed = seed;
        j.input = app;
        add(j, j.input + "/n" + std::to_string(nodes));
      }
    }
  } else if (workload == "serve_read" || workload == "serve_write") {
    const std::string profile = workload == "serve_read" ? "none" : "skew";
    for (double rate : kServeRates) {
      for (int i = 0; i < kServeSubSeeds; ++i) {
        Job j;
        j.app = "serve";
        j.profile = profile;
        j.nodes = kServeNodes;
        j.sp = serve_params(profile, sub_seed(seed, i, kServeSubSeeds), rate, kLadderOps);
        j.input = profile + "/r" + std::to_string(static_cast<int>(rate)) + "/s" +
                  std::to_string(j.sp.seed);
        add(j, j.input);
      }
    }
  } else if (workload == "serve_faults") {
    for (const char* profile : kFaultProfiles) {
      for (int i = 0; i < kFaultSubSeeds; ++i) {
        Job j;
        j.app = "serve";
        j.profile = profile;
        j.nodes = kServeNodes;
        j.sp = serve_params(profile, sub_seed(seed, i, kFaultSubSeeds), kFaultRate, kFaultOps);
        j.input = std::string(profile) + "/s" + std::to_string(j.sp.seed);
        add(j, j.input);
      }
    }
  }
  return jobs;
}

// The fault-free twin of a fault cell (same traffic, no fault profile): the
// baseline that ha.host_s subtracts.
Job fault_free_twin(Job j) {
  j.profile = j.profile == "hot" ? "skew" : "none";
  j.id += "/nofault";
  return j;
}

apps::PiParams pi_params() { return apps::PiParams{kPiIntervals}; }
apps::JacobiParams jacobi_params() {
  apps::JacobiParams p;
  p.n = kJacobiN;
  p.steps = kJacobiSteps;
  return p;
}
apps::BarnesParams barnes_params(const Job& j) {
  apps::BarnesParams p;
  p.bodies = kBarnesBodies;
  p.steps = kBarnesSteps;
  p.seed = j.input_seed + 11;
  return p;
}
apps::TspParams tsp_params(const Job& j) {
  apps::TspParams p;
  p.cities = kTspCities;
  p.seed = j.input_seed + 7;
  return p;
}
apps::AspParams asp_params(const Job& j) {
  apps::AspParams p;
  p.n = kAspN;
  p.seed = j.input_seed + 42;
  return p;
}

// "1|0.2.3": isolate node 1 from everyone else (bench/serve's partition cell).
std::string minority_groups(int nodes) {
  std::string rest;
  for (int n = 0; n < nodes; ++n) {
    if (n == 1) continue;
    rest += (rest.empty() ? "" : ".") + std::to_string(n);
  }
  return "1|" + rest;
}

std::string fault_spec(const Job& j) {
  const std::string seed = ",seed=" + std::to_string(j.sp.seed);
  if (j.profile == "crash" || j.profile == "hot") {
    return "replicas=" + std::to_string(kReplicas) + "," + kCrashWindow + seed;
  }
  if (j.profile == "partition") {
    return std::string("partition@") + kPartitionWindow + ":" + minority_groups(j.nodes) + seed;
  }
  return "";
}

apps::VmConfig job_config(const Job& j) {
  apps::VmConfig cfg = apps::make_config(kPreset, j.protocol, j.nodes);
  const std::string spec = fault_spec(j);
  if (!spec.empty()) cfg.cluster.fault = cluster::FaultProfile::parse(spec);
  return cfg;
}

// The bench/serve command that runs the same cell (all three protocols).
std::string repro(const Job& j) {
  if (j.app != "serve") return "";
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "bench/serve --profiles %s --thetas %g --seed %" PRIu64 " --rate %g --ops %" PRIu64
                " --nodes %d",
                j.profile.c_str(), j.sp.theta, j.sp.seed, j.sp.rate_ops_per_s, j.sp.ops_per_client,
                j.nodes);
  std::string cmd = buf;
  if (j.profile == "crash" || j.profile == "hot") {
    cmd += std::string(" --crash ") + kCrashWindow + " --replicas " + std::to_string(kReplicas);
  } else if (j.profile == "partition") {
    cmd += std::string(" --partition-window ") + kPartitionWindow;
  }
  return cmd;
}

std::uint64_t serve_units(const Job& j) {
  return static_cast<std::uint64_t>(j.sp.clients_per_node * j.nodes) * j.sp.ops_per_client;
}

// --- serial references ----------------------------------------------------------

// The serve op streams exactly as run_serve builds them (writer affinity
// applied), so the reference replays what runs.
std::vector<std::vector<serve::Op>> serve_streams(const Job& j) {
  serve::WorkloadParams wp;
  wp.keys = j.sp.keys;
  wp.theta = j.sp.theta;
  wp.read_pct = j.sp.read_pct;
  wp.ops_per_client = j.sp.ops_per_client;
  wp.rate_ops_per_s = j.sp.rate_ops_per_s;
  wp.seed = j.sp.seed;
  const int clients = j.sp.clients_per_node * j.nodes;
  std::vector<std::vector<serve::Op>> streams;
  for (int c = 0; c < clients; ++c) {
    streams.push_back(serve::client_ops(wp, c));
    if (j.sp.writer_node >= 0 && c % j.nodes != j.sp.writer_node) {
      for (serve::Op& op : streams.back()) {
        op.is_update = false;
        op.delta = 0;
      }
    }
  }
  return streams;
}

// Answers travel between processes as text: %.17g for the apps' doubles
// (exact round trip), decimal for serve's 64-bit store checksums.
std::string serial_answer(const Job& j) {
  if (j.app == "pi") return num(apps::pi_serial(pi_params()));
  if (j.app == "jacobi") return num(apps::jacobi_serial(jacobi_params()));
  if (j.app == "barnes") return num(apps::barnes_serial(barnes_params(j)));
  if (j.app == "tsp") return num(apps::tsp_serial(tsp_params(j)));
  if (j.app == "asp") return num(apps::asp_serial(asp_params(j)));
  return std::to_string(serve::reference_from_streams(serve_streams(j), j.sp.keys).checksum());
}

// Parallel answers may differ from the serial ones in the last bits where the
// reduction order differs (pi, jacobi, barnes); the rest must match exactly.
bool answer_matches(const std::string& app, double got, double want) {
  if (app == "pi") return std::abs(got - want) <= 1e-9;
  if (app == "jacobi") return std::abs(got - want) <= std::abs(want) * 1e-12 + 1e-12;
  if (app == "barnes") return std::abs(got - want) <= std::abs(want) * 1e-9 + 1e-9;
  return got == want;
}

// --- the job itself ---------------------------------------------------------------

void run_job(const Job& j, std::string expect, bool selfref, bool obs_on, bool spans_on, int repeat) {
  Spans spans(spans_on);
  if (selfref) spans.time("serial_ref", [&] { expect = serial_answer(j); });

  apps::VmConfig cfg = job_config(j);
  cluster::TraceLog trace;
  obs::PageHeatTable heat;
  obs::PhaseAccounting phases;
  if (obs_on) {
    cfg.trace = &trace;
    cfg.heat = &heat;
    cfg.phases = &phases;
  }

  apps::RunResult r;
  serve::ServeResult sr;
  std::string first_stats;
  bool repeat_identical = true;
  double call_s = 0;
  for (int rep = 0; rep < repeat; ++rep) {
    const auto t0 = Clock::now();
    spans.time("call", [&] {
      if (j.app == "pi") r = apps::pi_parallel(cfg, pi_params());
      else if (j.app == "jacobi") r = apps::jacobi_parallel(cfg, jacobi_params());
      else if (j.app == "barnes") r = apps::barnes_parallel(cfg, barnes_params(j));
      else if (j.app == "tsp") r = apps::tsp_parallel(cfg, tsp_params(j));
      else if (j.app == "asp") r = apps::asp_parallel(cfg, asp_params(j));
      else {
        sr = serve::run_serve(cfg, j.sp);
        r = sr.run;
      }
    });
    call_s = secs_since(t0);
    // Virtual-time results must repeat exactly within one process.
    const std::string fingerprint = r.stats.to_string() + num(static_cast<double>(r.elapsed)) +
                                    std::to_string(r.events_processed) + num(r.value);
    if (rep == 0) first_stats = fingerprint;
    else repeat_identical = repeat_identical && fingerprint == first_stats;
  }

  bool ok = true;
  std::uint64_t units = 1;
  std::uint64_t failed_units = 0;
  std::string reason;
  const auto tv = Clock::now();
  spans.time("verify", [&] {
    if (j.app == "serve") {
      units = serve_units(j);
      const bool match = sr.state_ok && std::to_string(sr.checksum) == expect;
      if (!match) {
        // Each diverged key is at least one lost acked write.
        failed_units = std::max<std::uint64_t>(sr.lost_keys, 1);
        reason = "store diverged: " + std::to_string(sr.lost_keys) + " lost keys";
      }
    } else if (!answer_matches(j.app, r.value, std::strtod(expect.c_str(), nullptr))) {
      failed_units = 1;
      reason = "answer " + num(r.value) + " != serial reference " + expect;
    }
    ok = failed_units == 0;
  });
  const double verify_s = secs_since(tv);

  const Stats& st = r.stats;
  Obj counters;
  for (int c = 0; c < static_cast<int>(Counter::kCount_); ++c) {
    counters.u(counter_name(static_cast<Counter>(c)), st.get(static_cast<Counter>(c)));
  }
  for (const char* name : {"dsm_mode_switches", "dsm_home_migrations", "dsm_migrations_reverted"}) {
    counters.u(name, st.get_named(name));
  }
  counters.u("events", r.events_processed).u("context_switches", r.context_switches);

  Log2Histogram ops = st.hist(Hist::kServeReadLatency);
  ops.merge(st.hist(Hist::kServeUpdateLatency));
  Obj hists;
  hists.raw("page_fetch", hist_json(st.hist(Hist::kPageFetchLatency)))
      .raw("monitor_wait", hist_json(st.hist(Hist::kMonitorAcquireWait)))
      .raw("recovery", hist_json(st.hist(Hist::kRecoveryLatency)))
      .raw("op", hist_json(ops));

  Obj out;
  out.str("id", j.id)
      .b("ok", ok)
      .u("units", units)
      .u("failed_units", failed_units)
      .str("reason", reason)
      .f("value", r.value)
      .str("expect", expect)
      .f("call_s", call_s)
      .f("verify_s", verify_s)
      .f("sim_s", to_seconds(r.elapsed))
      .b("repeat_identical", repeat_identical)
      .raw("counters", counters.json())
      .raw("hists", hists.json());
  if (j.app == "serve") {
    out.u("lost_keys", sr.lost_keys).u("ops", sr.ops).u("faultwin_ops", sr.faultwin_ops);
  }
  if (obs_on) {
    std::string ph;
    for (int p = 0; p < obs::kPhaseCount; ++p) {
      ph += (ph.empty() ? "" : ",") +
            std::to_string(phases.total(static_cast<obs::Phase>(p)));
    }
    out.raw("phases_ps", "[" + ph + "]")
        .u("trace_events", trace.events().size())
        .u("trace_dropped", trace.dropped());
  }
  if (spans_on) out.raw("spans", spans.json());
  out.print();
}

// --- probes ---------------------------------------------------------------------------

// Each probe times only public calls into one layer, at the workload's own
// preset, node count and page size, and returns host time per call.
struct ProbeConfig {
  cluster::ClusterParams params;
  int nodes = 0;
  std::size_t region = std::size_t{256} << 20;
};

ProbeConfig probe_config(const std::string& workload) {
  ProbeConfig pc;
  pc.params = cluster::ClusterParams::by_name(kPreset);
  pc.nodes = workload == "paper_figs" ? kFigNodes[1] : kServeNodes;
  return pc;
}

// ns per get/put on present pages: a get of a cached remote page plus a put
// on a home page, the two fast paths every kernel loop is made of.
double probe_access_ns(const ProbeConfig& pc, dsm::ProtocolKind kind) {
  constexpr int kWords = 512;
  constexpr int kRounds = 4000;
  double ns = 0;
  cluster::Cluster c(pc.params, pc.nodes);
  dsm::DsmSystem d(&c, pc.region, kind);
  const dsm::Gva remote = d.alloc(0, kWords * 8, pc.params.page_bytes);
  const dsm::Gva local = d.alloc(1, kWords * 8, pc.params.page_bytes);
  c.spawn_thread(1, "probe-access", [&] {
    auto t = d.make_thread(1);
    for (int w = 0; w < kWords; w += static_cast<int>(pc.params.page_bytes / 8)) {
      d.load_into_cache(*t, remote + static_cast<dsm::Gva>(w) * 8);
    }
    dsm::with_policy(kind, [&](auto policy) {
      using P = decltype(policy);
      std::int64_t sum = 0;
      const auto t0 = Clock::now();
      for (int r = 0; r < kRounds; ++r) {
        for (int w = 0; w < kWords; ++w) {
          const dsm::Gva off = static_cast<dsm::Gva>(w) * 8;
          sum += P::template get<std::int64_t>(*t, remote + off);
          P::template put<std::int64_t>(*t, local + off, sum);
        }
      }
      ns = std::chrono::duration<double, std::nano>(Clock::now() - t0).count() /
           (2.0 * kRounds * kWords);
    });
  });
  c.run();
  return ns;
}

// us per dirty page flushed by update_main_memory (java_pf: twin diff and
// run shipping, the path serve's release flushes take).
double probe_flush_us(const ProbeConfig& pc) {
  constexpr int kPages = 16;
  constexpr int kRounds = 200;
  double us = 0;
  cluster::Cluster c(pc.params, pc.nodes);
  dsm::DsmSystem d(&c, pc.region, dsm::ProtocolKind::kJavaPf);
  const std::size_t page = pc.params.page_bytes;
  const dsm::Gva base = d.alloc(0, kPages * page, page);
  c.spawn_thread(1, "probe-flush", [&] {
    auto t = d.make_thread(1);
    double total = 0;
    for (int r = 0; r < kRounds; ++r) {
      for (int p = 0; p < kPages; ++p) {
        for (int w = 0; w < 8; ++w) {
          const dsm::Gva a = base + static_cast<dsm::Gva>(p) * page + static_cast<dsm::Gva>(w) * 64;
          dsm::PfPolicy::put<std::int64_t>(*t, a, r + w);
        }
      }
      t->clock.flush();
      const auto t0 = Clock::now();
      d.update_main_memory(*t);
      total += secs_since(t0);
    }
    us = total * 1e6 / (kRounds * kPages);
  });
  c.run();
  return us;
}

// us per load_into_cache of a remote page (fetch RPC, copy, install).
double probe_fetch_us(const ProbeConfig& pc) {
  constexpr int kPages = 64;
  constexpr int kRounds = 40;
  double us = 0;
  cluster::Cluster c(pc.params, pc.nodes);
  dsm::DsmSystem d(&c, pc.region, dsm::ProtocolKind::kJavaPf);
  const std::size_t page = pc.params.page_bytes;
  const dsm::Gva base = d.alloc(0, kPages * page, page);
  c.spawn_thread(1, "probe-fetch", [&] {
    auto t = d.make_thread(1);
    double total = 0;
    for (int r = 0; r < kRounds; ++r) {
      d.invalidate_cache(*t);
      const auto t0 = Clock::now();
      for (int p = 0; p < kPages; ++p) {
        d.load_into_cache(*t, base + static_cast<dsm::Gva>(p) * page);
      }
      total += secs_since(t0);
    }
    us = total * 1e6 / (kRounds * kPages);
  });
  c.run();
  return us;
}

// ns per engine event in a sleep storm: many fibers sleeping staggered
// intervals, so every event is a heap pop plus a context switch.
double probe_event_ns() {
  constexpr int kFibers = 64;
  constexpr int kSleeps = 2000;
  sim::Engine eng;
  for (int f = 0; f < kFibers; ++f) {
    eng.spawn("sleeper" + std::to_string(f), [&eng, f] {
      for (int i = 0; i < kSleeps; ++i) eng.sleep_for(static_cast<Time>(1 + (f * 7 + i) % 13));
    });
  }
  const auto t0 = Clock::now();
  eng.run();
  return secs_since(t0) * 1e9 / static_cast<double>(eng.events_processed());
}

// us per Cluster::call round trip between two nodes (echo service).
double probe_rpc_us(const ProbeConfig& pc) {
  constexpr int kCalls = 20000;
  constexpr cluster::ServiceId kEcho = 1;
  cluster::Cluster c(pc.params, pc.nodes);
  c.node(1).register_service(kEcho, "perfbench_echo", [&](cluster::Incoming& in) {
    Buffer outb;
    outb.put<std::uint64_t>(in.reader.get<std::uint64_t>());
    c.reply(in, std::move(outb));
  });
  double us = 0;
  c.spawn_thread(0, "probe-rpc", [&] {
    const auto t0 = Clock::now();
    for (int i = 0; i < kCalls; ++i) {
      Buffer req;
      req.put<std::uint64_t>(static_cast<std::uint64_t>(i));
      (void)c.call(0, 1, kEcho, std::move(req));
    }
    us = secs_since(t0) * 1e6 / kCalls;
  });
  c.run();
  return us;
}

// The VM-level probes run hybrid, the protocol that carries the most
// per-node state (windowed heat, mode bits).
hyperion::VmConfig probe_vm_config(const ProbeConfig& pc) {
  hyperion::VmConfig cfg;
  cfg.cluster = pc.params;
  cfg.nodes = pc.nodes;
  cfg.protocol = dsm::ProtocolKind::kHybrid;
  cfg.region_bytes = pc.region;
  return cfg;
}

// ns per uncontended monitor_enter/monitor_exit pair on a local object.
double probe_monitor_ns(const ProbeConfig& pc) {
  constexpr int kPairs = 20000;
  hyperion::HyperionVM vm(probe_vm_config(pc));
  double ns = 0;
  vm.run_main([&](hyperion::JavaEnv& env) {
    const auto cell = env.new_cell<std::int64_t>(0);
    const auto t0 = Clock::now();
    for (int i = 0; i < kPairs; ++i) {
      env.monitor_enter(cell.addr);
      env.monitor_exit(cell.addr);
    }
    ns = secs_since(t0) * 1e9 / kPairs;
  });
  return ns;
}

// ms per HyperionVM construction + teardown.
double probe_vm_build_ms(const ProbeConfig& pc) {
  constexpr int kBuilds = 20;
  const hyperion::VmConfig cfg = probe_vm_config(pc);
  const auto t0 = Clock::now();
  for (int i = 0; i < kBuilds; ++i) {
    auto vm = std::make_unique<hyperion::HyperionVM>(cfg);
  }
  return secs_since(t0) * 1e3 / kBuilds;
}

void run_probes(const std::string& workload, bool spans_on) {
  const ProbeConfig pc = probe_config(workload);
  Spans spans(spans_on);
  Obj out;
  auto probe = [&](const std::string& name, auto&& fn) {
    double v = 0;
    spans.time("probe." + name, [&] { v = fn(); });
    out.f(name, v);
  };
  probe("dsm.ic_access_ns", [&] { return probe_access_ns(pc, dsm::ProtocolKind::kJavaIc); });
  probe("dsm.pf_access_ns", [&] { return probe_access_ns(pc, dsm::ProtocolKind::kJavaPf); });
  probe("dsm.hybrid_access_ns", [&] { return probe_access_ns(pc, dsm::ProtocolKind::kHybrid); });
  probe("dsm.flush_us_per_page", [&] { return probe_flush_us(pc); });
  probe("dsm.fetch_us", [&] { return probe_fetch_us(pc); });
  probe("sim.event_ns", [&] { return probe_event_ns(); });
  probe("cluster.rpc_us", [&] { return probe_rpc_us(pc); });
  probe("hyperion.monitor_pair_ns", [&] { return probe_monitor_ns(pc); });
  probe("hyperion.vm_build_ms", [&] { return probe_vm_build_ms(pc); });
  if (spans_on) out.raw("spans", spans.json());
  out.print();
}

// --- set-up: inputs and serial references ---------------------------------------------------

void run_refs(const std::vector<Job>& jobs) {
  // One reference per distinct input; stream generation (serve) is timed
  // on its own so that serve.gen_s separates from the replay.
  std::map<std::string, std::string> refs;
  double ref_s = 0;
  double gen_s = 0;
  for (const Job& j : jobs) {
    if (refs.count(j.input) != 0) continue;
    if (j.app == "serve") {
      auto t0 = Clock::now();
      const auto streams = serve_streams(j);
      gen_s += secs_since(t0);
      t0 = Clock::now();
      refs[j.input] = std::to_string(serve::reference_from_streams(streams, j.sp.keys).checksum());
      ref_s += secs_since(t0);
    } else {
      const auto t0 = Clock::now();
      refs[j.input] = serial_answer(j);
      ref_s += secs_since(t0);
    }
  }
  std::string expect;
  for (const Job& j : jobs) expect += (expect.empty() ? "" : ",") + quoted(refs[j.input]);
  Obj().f("ref_s", ref_s).f("gen_s", gen_s).raw("expect", "[" + expect + "]").print();
}

void list_jobs(const std::vector<Job>& jobs) {
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const Job& j = jobs[i];
    Obj o;
    o.u("index", i)
        .str("id", j.id)
        .str("app", j.app)
        .str("input", j.input)
        .str("profile", j.profile)
        .str("protocol", dsm::protocol_name(j.protocol))
        .u("nodes", static_cast<std::uint64_t>(j.nodes))
        .u("units", j.app == "serve" ? serve_units(j) : 1)
        .str("repro", repro(j));
    if (j.app == "serve") {
      o.f("rate", j.sp.rate_ops_per_s)
          .u("clients", static_cast<std::uint64_t>(j.sp.clients_per_node * j.nodes))
          .u("cell_seed", j.sp.seed);
    }
    o.print();
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench_job list|ref|job|probe --workload W --seed N ...\n");
    return 2;
  }
  const std::string mode = argv[1];
  Cli cli("perfbench_job — one piece of the repository benchmark per process");
  cli.flag_string("workload", "", "paper_figs | serve_read | serve_write | serve_faults")
      .flag_int("seed", 1, "benchmark seed; every input derives from it")
      .flag_int("index", -1, "job index (job mode)")
      .flag_string("expect", "", "expected answer from the ref mode (job mode)")
      .flag_bool("selfref", false, "compute the serial reference in-process (job mode)")
      .flag_bool("obs", false, "attach the trace/heat/phase hooks (job mode)")
      .flag_bool("spans", false, "record the benchmark's own spans")
      .flag_bool("nofault", false, "run the fault-free twin of a fault cell (job mode)")
      .flag_int("repeat", 1, "run the job this many times in-process (job mode)");
  if (!cli.parse(argc - 1, argv + 1)) return 0;
  const std::string workload = cli.get_string("workload");
  if (!is_workload(workload)) {
    std::fprintf(stderr, "perfbench_job: unknown --workload '%s'\n", workload.c_str());
    return 2;
  }
  const auto jobs = workload_jobs(workload, static_cast<std::uint64_t>(cli.get_int("seed")));
  if (mode == "list") {
    list_jobs(jobs);
  } else if (mode == "ref") {
    run_refs(jobs);
  } else if (mode == "probe") {
    run_probes(workload, cli.get_bool("spans"));
  } else if (mode == "job") {
    const std::int64_t index = cli.get_int("index");
    if (index < 0 || index >= static_cast<std::int64_t>(jobs.size()) || cli.get_int("repeat") < 1) {
      std::fprintf(stderr, "perfbench_job: --index out of range or --repeat < 1\n");
      return 2;
    }
    Job j = jobs[static_cast<std::size_t>(index)];
    if (cli.get_bool("nofault")) j = fault_free_twin(j);
    run_job(j, cli.get_string("expect"), cli.get_bool("selfref"), cli.get_bool("obs"),
            cli.get_bool("spans"), static_cast<int>(cli.get_int("repeat")));
  } else {
    std::fprintf(stderr, "perfbench_job: unknown mode '%s'\n", mode.c_str());
    return 2;
  }
  return 0;
}
