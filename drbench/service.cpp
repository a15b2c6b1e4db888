// routed_mix: a router in front of two shards, driven over real sockets
// through service::Client.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <thread>

#include "common.h"
#include "explorer/explorer.h"
#include "frontend/frontend.h"
#include "items.h"
#include "partition/advisor.h"
#include "replay.h"
#include "report/report.h"
#include "service/client.h"
#include "service/router.h"
#include "service/server.h"
#include "support/hash.h"
#include "support/parallel.h"

namespace drb {

namespace {

namespace ex = dr::explorer;
namespace pa = dr::partition;
namespace sv = dr::service;
namespace proto = dr::service::proto;
namespace fs = std::filesystem;
using dr::support::StatusCode;

enum class Kind { Explore, Advise, Malformed };

/// One distinct request of a workload's stream.
struct Request {
  std::string cls;  ///< hot, cold, burst, advise_hot, advise_cold, malformed
  std::string family;
  Kind kind = Kind::Explore;
  std::string source;
  std::string signal;
  pa::Mode mode = pa::Mode::WayPartition;
  /// Reference reply content: the curve CSV (Explore) or the advisor CSV
  /// without its fidelity column (Advise), from the materialized engine.
  std::string expected;
};

struct Planned {
  double atMs = 0;  ///< send time, from the start of the phase
  int request = 0;
};

bool exactRung(std::uint8_t f) {
  using F = dr::simcore::Fidelity;
  const auto fid = static_cast<F>(f);
  return fid == F::Symbolic || fid == F::ExactStream || fid == F::ExactFold;
}

/// Reference replies from the materialized-trace engine, computed before
/// any timed request. Chains do not enter a reply, so one level keeps the
/// reference cheap.
bool computeReference(Request& r) {
  if (r.kind == Kind::Malformed) {
    auto c = dr::frontend::compileKernelChecked(r.source);
    return !c.hasValue() && c.status().code() == StatusCode::InvalidInput;
  }
  auto compiled = dr::frontend::compileKernelChecked(r.source);
  if (!compiled.hasValue()) return false;
  ex::ExploreOptions eo;
  eo.engine = ex::SimEngine::Materialized;
  eo.chainOptions.maxLevels = 1;
  if (r.kind == Kind::Advise) {
    pa::AdvisorOptions ao;
    ao.solve.mode = r.mode;
    ao.solve.capacity = kAdviseCapacity;
    ao.solve.ways = kAdviseWays;
    ao.explore = eo;
    auto rep = pa::adviseKernelChecked(*compiled, ao);
    if (!rep.hasValue()) return false;
    r.expected = withoutFidelity(dr::report::advisorCsv(*rep));
    return true;
  }
  const int sig = signalIndex(*compiled, r.signal);
  auto e = ex::exploreSignalChecked(*compiled, sig, eo);
  if (!e.hasValue()) return false;
  r.expected = dr::report::curveCsv(e->signalName, e->simulatedCurve);
  return true;
}

/// Sends one request and checks the reply against the reference.
bool send(sv::Client& client, const Request& r) {
  if (r.kind == Kind::Advise) {
    proto::AdviseRequest req;
    req.kernel = r.source;
    req.mode = static_cast<std::uint8_t>(r.mode);
    req.capacity = kAdviseCapacity;
    req.ways = kAdviseWays;
    auto reply = client.advise(req);
    if (!reply.hasValue() || reply->code != StatusCode::Ok) return false;
    auto res = proto::decodeAdviseResult(reply->body);
    return res.hasValue() && exactRung(res->fidelity) &&
           withoutFidelity(res->csv) == r.expected;
  }
  proto::ExploreRequest req;
  req.kernel = r.source;
  req.signal = r.signal;
  auto reply = client.explore(req);
  if (r.kind == Kind::Malformed)
    return reply.hasValue() && reply->code == StatusCode::InvalidInput;
  if (!reply.hasValue() || reply->code != StatusCode::Ok) return false;
  auto res = proto::decodeExploreResult(reply->body);
  return res.hasValue() && exactRung(res->fidelity) && res->csv == r.expected;
}

sv::ClientOptions clientOptions(const std::string& endpoint) {
  sv::ClientOptions o;
  o.endpoint = endpoint;
  // No client retries: a shed, expired or lost reply reaches send() as a
  // failure and counts as a miss.
  o.maxAttempts = 1;
  return o;
}

std::string endpointString(const dr::service::transport::Endpoint& ep) {
  if (ep.kind == dr::service::transport::Endpoint::Kind::Unix)
    return "unix:" + ep.path;
  return ep.host + ":" + std::to_string(ep.port);
}

struct Sample {
  int request = 0;
  double latencyMs = 0;  ///< from the scheduled send to the reply
  double rttUs = 0;      ///< from the actual send to the reply
  double lateMs = 0;     ///< actual send minus scheduled send
  bool slept = false;    ///< the sender was idle and slept until due
  bool ok = false;
};

/// Open loop: `senders` threads take the next due request in schedule
/// order, sleep until its send time when early, and time it from that
/// scheduled time, so queueing behind a slow reply is counted.
std::vector<Sample> runOpenLoop(const std::vector<Request>& requests,
                                const std::vector<Planned>& plan, int senders,
                                const std::string& endpoint, Tracer* tracer,
                                std::vector<sv::ClientStats>* clientStats) {
  std::vector<Sample> samples(plan.size());
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> threads;
  std::vector<sv::ClientStats> stats(static_cast<std::size_t>(senders));
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  for (int t = 0; t < senders; ++t)
    threads.emplace_back([&, t] {
      lowerTimerSlack();
      sv::Client client(clientOptions(endpoint));
      for (;;) {
        const std::size_t i = next.fetch_add(1);
        if (i >= plan.size()) break;
        const Planned& p = plan[i];
        const Request& r = requests[static_cast<std::size_t>(p.request)];
        const Clock::time_point due =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double, std::milli>(p.atMs));
        Sample& s = samples[i];
        s.request = p.request;
        if (Clock::now() < due) {
          s.slept = true;
          std::this_thread::sleep_until(due);
        }
        const Clock::time_point sent = Clock::now();
        // The request's span runs from its scheduled send; the wait for a
        // free sender (or the oversleep) is its first child.
        ScopedSpan root(tracer, "request", due);
        if (tracer) tracer->record("gen.wait", due, sent);
        {
          ScopedSpan call(tracer, "client." + r.cls);
          s.ok = send(client, r);
        }
        const Clock::time_point done = Clock::now();
        s.lateMs = msBetween(due, sent);
        s.latencyMs = msBetween(due, done);
        s.rttUs = usBetween(sent, done);
      }
      stats[static_cast<std::size_t>(t)] = client.stats();
    });
  for (std::thread& th : threads) th.join();
  if (clientStats) *clientStats = stats;
  return samples;
}

/// Closed loop: `clients` threads each send their next request as soon as
/// the previous reply arrives, for `seconds`. Returns the samples (latency
/// from the actual send) and the wall time.
std::pair<std::vector<Sample>, double> runClosedLoop(
    const std::vector<Request>& requests, const std::vector<int>& pool,
    int clients, double seconds, const std::string& endpoint,
    std::uint64_t seed, Tracer* tracer) {
  std::vector<std::vector<Sample>> per(static_cast<std::size_t>(clients));
  std::vector<std::thread> threads;
  const Clock::time_point start = Clock::now();
  const Clock::time_point stop =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  for (int t = 0; t < clients; ++t)
    threads.emplace_back([&, t] {
      sv::Client client(clientOptions(endpoint));
      Rng rng(seed * 1000003ULL + static_cast<std::uint64_t>(t));
      while (Clock::now() < stop) {
        const int idx = pool[static_cast<std::size_t>(
            rng.below(static_cast<i64>(pool.size())))];
        const Request& r = requests[static_cast<std::size_t>(idx)];
        Sample s;
        s.request = idx;
        const Clock::time_point t0 = Clock::now();
        {
          ScopedSpan call(tracer, "closed." + r.cls);
          s.ok = send(client, r);
        }
        const Clock::time_point t1 = Clock::now();
        s.latencyMs = msBetween(t0, t1);
        s.rttUs = usBetween(t0, t1);
        per[static_cast<std::size_t>(t)].push_back(s);
      }
    });
  for (std::thread& th : threads) th.join();
  const double wall = msBetween(start, Clock::now()) / 1000.0;
  std::vector<Sample> all;
  for (auto& v : per) all.insert(all.end(), v.begin(), v.end());
  return {all, wall};
}

/// Traced over untraced mean round trip of the same closed loop, the two
/// alternating in four rounds so both see the same spells of the host.
double tracingOverhead(const std::vector<Request>& requests,
                       const std::vector<int>& pool, int clients, double seconds,
                       const std::string& endpoint, std::uint64_t seed) {
  std::vector<double> plain, traced;
  for (int round = 0; round < 4; ++round) {
    Tracer tracer;
    for (Tracer* t : {static_cast<Tracer*>(nullptr), &tracer}) {
      const auto [samples, wall] =
          runClosedLoop(requests, pool, clients, seconds / 8, endpoint, seed + round, t);
      for (const Sample& s : samples) (t ? traced : plain).push_back(s.rttUs);
    }
  }
  return mean(traced) / std::max(1e-9, mean(plain));
}

/// Counters of the serving side summed over its servers.
dr::service::MetricsSnapshot sumCounters(const std::vector<const sv::Server*>& servers);

/// The two load phases of a service workload, interleaved.
struct Phases {
  std::vector<Sample> open, closed;     ///< open samples in schedule order
  std::vector<double> windowRps;        ///< completed-OK rate per closed window
  std::vector<sv::ClientStats> clientStats;  ///< open-loop senders
  double openWallUs = 0;                ///< open segments only
  double busyUs = 0;  ///< server-timed Explore handling + Advise round trips
};

/// Open-loop segments, each followed by a closed-loop window.
constexpr int kSegments = 10;

/// Runs the open-loop `plan` (times within `openSeconds`) in `kSegments`
/// segments; in an untraced run (`tracer` null) a closed-loop window of
/// `closedSeconds / kSegments` over `pool` follows each one. Both phases
/// then sample the whole run, so a slow spell of the shared host (a few
/// seconds) hits a few segments and windows rather than one phase, and
/// throughput is taken as the median of the windows' rates.
Phases runPhases(const std::vector<Request>& requests, const std::vector<Planned>& plan,
                 const std::vector<int>& pool, int senders, int clients,
                 double openSeconds, double closedSeconds, const std::string& endpoint,
                 std::uint64_t seed, Tracer* tracer,
                 const std::vector<const sv::Server*>& servers) {
  Phases ph;
  const double segmentMs = openSeconds * 1000.0 / kSegments;
  for (int k = 0; k < kSegments; ++k) {
    std::vector<Planned> part;
    for (const Planned& p : plan)
      if (std::min(kSegments - 1, static_cast<int>(p.atMs / segmentMs)) == k)
        part.push_back({p.atMs - k * segmentMs, p.request});
    const dr::service::MetricsSnapshot b = sumCounters(servers);
    const Clock::time_point t0 = Clock::now();
    std::vector<sv::ClientStats> cs;
    const std::vector<Sample> samples =
        runOpenLoop(requests, part, senders, endpoint, tracer, &cs);
    ph.openWallUs += usBetween(t0, Clock::now());
    // A shard times only an Advise's solve, so an Advise counts its round
    // trip.
    ph.busyUs += static_cast<double>(sumCounters(servers).exploreLatency.totalUs -
                                     b.exploreLatency.totalUs);
    for (const Sample& s : samples)
      if (requests[static_cast<std::size_t>(s.request)].kind == Kind::Advise)
        ph.busyUs += s.rttUs;
    ph.open.insert(ph.open.end(), samples.begin(), samples.end());
    ph.clientStats.insert(ph.clientStats.end(), cs.begin(), cs.end());
    if (tracer) continue;
    const auto [window, wallS] =
        runClosedLoop(requests, pool, clients, closedSeconds / kSegments, endpoint,
                      seed * 64 + static_cast<std::uint64_t>(k), nullptr);
    i64 ok = 0;
    for (const Sample& s : window) ok += s.ok ? 1 : 0;
    ph.windowRps.push_back(static_cast<double>(ok) / wallS);
    ph.closed.insert(ph.closed.end(), window.begin(), window.end());
  }
  if (!tracer) {
    std::printf("closed-loop windows: %zu of %.3f s, rates", ph.windowRps.size(),
                closedSeconds / kSegments);
    for (double r : ph.windowRps) std::printf(" %.0f", r);
    std::printf(" req/s\n");
  }
  return ph;
}

std::uint64_t planDigest(const std::vector<Request>& requests,
                         const std::vector<Planned>& plan) {
  std::uint64_t h = dr::support::kFnvOffset64;
  for (const Planned& p : plan) {
    const Request& r = requests[static_cast<std::size_t>(p.request)];
    h = dr::support::fnv1a(r.cls + "|" + r.source + "|" + r.signal + "|" +
                               std::to_string(static_cast<int>(r.mode)) + "|" +
                               std::to_string(p.atMs) + "\n",
                           h);
  }
  return h;
}

/// Counters of the serving side summed over its servers.
dr::service::MetricsSnapshot sumCounters(const std::vector<const sv::Server*>& servers) {
  dr::service::MetricsSnapshot t;
  for (const sv::Server* s : servers) {
    const dr::service::MetricsSnapshot m = s->metricsSnapshot();
    t.queueDepthHighWater = std::max(t.queueDepthHighWater, m.queueDepthHighWater);
    t.shedQueueFull += m.shedQueueFull;
    t.shedQueueWait += m.shedQueueWait;
    t.deadlinesTightened += m.deadlinesTightened;
    t.expiredRequests += m.expiredRequests;
    t.degradedReplies += m.degradedReplies;
    t.cacheHits += m.cacheHits;
    t.warmHits += m.warmHits;
    t.cacheMisses += m.cacheMisses;
    t.cacheEvictions += m.cacheEvictions;
    t.cacheBytes += m.cacheBytes;
    t.inflightJoins += m.inflightJoins;
    t.curvesSymbolic += m.curvesSymbolic;
    t.curvesExactStream += m.curvesExactStream;
    t.curvesExactFold += m.curvesExactFold;
    t.curvesApproxFold += m.curvesApproxFold;
    t.adviseRequests += m.adviseRequests;
    t.adviseCacheHits += m.adviseCacheHits;
    t.exploreLatency.count += m.exploreLatency.count;
    t.exploreLatency.totalUs += m.exploreLatency.totalUs;
    t.adviseSolveLatency.count += m.adviseSolveLatency.count;
    t.adviseSolveLatency.totalUs += m.adviseSolveLatency.totalUs;
  }
  return t;
}

/// Per-layer values from server counter snapshots around a phase.
void serverDeltas(const dr::service::MetricsSnapshot& b,
                  const dr::service::MetricsSnapshot& a,
                  std::map<std::string, double>& v) {
  auto d = [](i64 x, i64 y) { return static_cast<double>(x - y); };
  const double calls = d(a.exploreLatency.count, b.exploreLatency.count);
  v["server.handle_mean_us"] =
      calls > 0 ? d(a.exploreLatency.totalUs, b.exploreLatency.totalUs) / calls : 0;
  v["admission.queue_hwm"] = static_cast<double>(a.queueDepthHighWater);
  v["admission.shed"] = d(a.shedQueueFull + a.shedQueueWait, b.shedQueueFull + b.shedQueueWait);
  v["admission.tightened"] = d(a.deadlinesTightened, b.deadlinesTightened);
  v["admission.expired"] = d(a.expiredRequests, b.expiredRequests);
  v["server.degraded_replies"] = d(a.degradedReplies, b.degradedReplies);
  const double hits = d(a.cacheHits, b.cacheHits), warm = d(a.warmHits, b.warmHits),
               misses = d(a.cacheMisses, b.cacheMisses);
  v["cache.hit_ratio"] = hits + warm + misses > 0 ? hits / (hits + warm + misses) : 0;
  v["cache.warm_hits"] = warm;
  v["cache.misses"] = misses;
  v["cache.evictions"] = d(a.cacheEvictions, b.cacheEvictions);
  v["cache.bytes"] = static_cast<double>(a.cacheBytes);
  v["singleflight.joins"] = d(a.inflightJoins, b.inflightJoins);
  v["server.curves_symbolic"] = d(a.curvesSymbolic, b.curvesSymbolic);
  v["server.curves_fold"] = d(a.curvesExactFold + a.curvesApproxFold,
                              b.curvesExactFold + b.curvesApproxFold);
  v["server.curves_stream"] = d(a.curvesExactStream, b.curvesExactStream);
  const double advises = d(a.adviseRequests, b.adviseRequests);
  v["advise.cache_hit_ratio"] =
      advises > 0 ? d(a.adviseCacheHits, b.adviseCacheHits) / advises : 0;
  const double solves = d(a.adviseSolveLatency.count, b.adviseSolveLatency.count);
  v["partition.solve_us"] =
      solves > 0 ? d(a.adviseSolveLatency.totalUs, b.adviseSolveLatency.totalUs) / solves : 0;
}

/// The run's private working directory for sockets, under
/// the current directory; removed when the run ends.
class RunDir {
 public:
  explicit RunDir(const std::string& workload) {
    home_ = fs::current_path();
    dir_ = home_ / ".bench_tmp" / (workload + "-" + std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    fs::current_path(dir_);  // socket paths stay short and relative
  }
  ~RunDir() {
    std::error_code ec;
    fs::current_path(home_, ec);
    fs::remove_all(dir_, ec);
    fs::remove(dir_.parent_path(), ec);  // only when no other run uses it
  }
  RunDir(const RunDir&) = delete;
  RunDir& operator=(const RunDir&) = delete;

 private:
  fs::path home_, dir_;
};

/// Hot-path stages a cache hit runs, replayed in process: compile, config
/// hash, and (on the computing request) the CSV render.
void replayHotPath(const std::vector<Request>& requests,
                   const std::vector<int>& hot, int rounds,
                   std::map<std::string, double>& v) {
  Tracer t;
  double csvBytes = 0;
  for (int round = 0; round < rounds; ++round)
    for (int idx : hot) {
      const Request& r = requests[static_cast<std::size_t>(idx)];
      if (r.kind != Kind::Explore) continue;
      std::optional<dr::support::Expected<dr::loopir::Program>> p;
      {
        ScopedSpan s(&t, "frontend.compile");
        p.emplace(dr::frontend::compileKernelChecked(r.source));
      }
      if (!p->hasValue()) continue;  // reported by the reference check
      const int sig = signalIndex(**p, r.signal);
      {
        ScopedSpan s(&t, "explorer.hash");
        (void)ex::exploreConfigHash(**p, sig, {});
      }
      if (round == 0) {
        auto e = ex::exploreSignalChecked(**p, sig, {});
        if (!e.hasValue()) continue;
        std::string csv;
        {
          ScopedSpan s(&t, "report.csv");
          csv = dr::report::curveCsv(e->signalName, e->simulatedCurve);
        }
        csvBytes += static_cast<double>(csv.size());
      }
    }
  const auto self = t.selfUs();
  const auto cnt = t.counts();
  for (const char* name : {"frontend.compile", "explorer.hash", "report.csv"}) {
    auto it = self.find(name);
    auto c = cnt.find(name);
    v[std::string(name) + "_us"] =
        it == self.end() ? 0 : it->second / static_cast<double>(c->second);
  }
  const auto c = cnt.find("report.csv");
  v["report.csv_bytes"] = c == cnt.end() ? 0 : csvBytes / static_cast<double>(c->second);
}

/// Generator validity: sleep overshoot of the senders that were early.
struct GenCheck {
  double lateP50 = 0, lateP99 = 0;
  bool valid = true;
};
GenCheck generatorCheck(const std::vector<Sample>& samples) {
  std::vector<double> late;
  for (const Sample& s : samples)
    if (s.slept) late.push_back(s.lateMs);
  GenCheck g;
  g.lateP50 = quantile(late, 0.5);
  g.lateP99 = quantile(late, 0.99);
  // The benchmark's own bound: a generator whose wake-ups are this late
  // measures its own stalls, not the service. (A shared virtual machine
  // alone was seen to oversleep by up to 6 ms at p99.)
  g.valid = !late.empty() && g.lateP50 <= 1.0 && g.lateP99 <= 20.0;
  std::printf("generator: %zu of %zu sends on schedule, late p50 %.4f ms, "
              "p99 %.4f ms (bounds 1 ms, 20 ms) -> %s\n",
              late.size(), samples.size(), g.lateP50, g.lateP99,
              g.valid ? "valid" : "INVALID");
  return g;
}

std::vector<double> latencies(const std::vector<Sample>& samples,
                              const std::vector<Request>& requests,
                              const std::function<bool(const Request&)>& keep) {
  std::vector<double> out;
  for (const Sample& s : samples)
    if (keep(requests[static_cast<std::size_t>(s.request)])) out.push_back(s.latencyMs);
  return out;
}

/// Geometric mean over `groupOf` groups of each group's median latency.
double groupGeomean(const std::vector<Sample>& samples,
                    const std::vector<Request>& requests,
                    const std::function<std::string(const Request&)>& groupOf) {
  std::map<std::string, std::vector<double>> groups;
  for (const Sample& s : samples) {
    const std::string g = groupOf(requests[static_cast<std::size_t>(s.request)]);
    if (!g.empty()) groups[g].push_back(s.latencyMs);
  }
  std::vector<double> medians;
  for (const auto& [g, v] : groups) medians.push_back(median(v));
  return geomean(medians);
}

/// Open-loop tail: the schedule is cut into windows of 100 consecutive
/// requests, each window's ladder tail is taken (p90: the highest
/// percentile with ten samples beyond it), and the median over the
/// windows is reported, so one stall of a shared machine moves one window
/// rather than the run's figure.
Tail windowedTail(const std::vector<Sample>& samples) {
  constexpr std::size_t kWindow = 100;
  Tail t;
  std::vector<double> tails;
  for (std::size_t at = 0; at + kWindow <= samples.size(); at += kWindow) {
    std::vector<double> v;
    for (std::size_t i = at; i < at + kWindow; ++i) v.push_back(samples[i].latencyMs);
    const Tail wt = ladderTail(v);
    tails.push_back(wt.value);
    t.percentile = wt.percentile;
  }
  t.value = median(tails);
  t.samples = kWindow;
  std::printf("tail_ms is the median over %zu windows of %zu requests of "
              "each window's p%g\n",
              tails.size(), kWindow, t.percentile);
  return t;
}

int cpus() { return std::max(1, static_cast<int>(std::thread::hardware_concurrency())); }

/// Share of the open loop's request spans (scheduled send to reply)
/// covered by their layer spans: the wait for a sender plus the client
/// call.
double requestCoverage(const Tracer& t) {
  double covered = 0;
  for (const auto& [name, us] : t.selfUs())
    if (name == "gen.wait" || name.rfind("client.", 0) == 0) covered += us;
  const auto total = t.totalUs();
  const auto root = total.find("request");
  return root == total.end() ? 0 : covered / std::max(1e-9, root->second);
}

/// Nothing may be shed, tightened or expired at the fixed offered rate.
bool admissionClean(const dr::service::MetricsSnapshot& b,
                    const dr::service::MetricsSnapshot& a) {
  const i64 shed = a.shedQueueFull + a.shedQueueWait - b.shedQueueFull - b.shedQueueWait;
  const i64 tightened = a.deadlinesTightened - b.deadlinesTightened;
  const i64 expired = a.expiredRequests - b.expiredRequests;
  const bool clean = shed == 0 && tightened == 0 && expired == 0;
  std::printf("admission: shed %lld, tightened %lld, expired %lld -> %s\n",
              static_cast<long long>(shed), static_cast<long long>(tightened),
              static_cast<long long>(expired), clean ? "clean" : "NOT CLEAN");
  return clean;
}

}  // namespace

// --------------------------------------------------------------------------

int runRoutedMix(const RunArgs& args, Clock::time_point processStart) {
  RunDir runDir("routed_mix");
  // One sender per CPU: cold replies hold a sender for milliseconds.
  const int senders = std::min(cpus(), 4);
  const int clients = std::clamp(cpus() - 1, 1, 3);
  std::printf("routed_mix: 2 TCP shards behind a hedging router, %d sender "
              "threads, explorer threads %d (DR_THREADS unset)\n",
              senders, dr::support::parallelThreads());
  const double openSeconds = args.seconds * 0.75, closedSeconds = args.seconds * 0.25;
  // One fixed rate that keeps the senders a few percent busy. A cold reply
  // holds its sender until the shard has computed it, so the nproc
  // synchronous senders, not the shards, set the ceiling; slow spells of
  // the shared host make cold replies several times slower, and the rate
  // leaves room for them. The run prints the sender and shard utilisation
  // it gives (README.md records them).
  const double rate = 100;
  const int burst = 3;  // identical requests per burst slot

  auto build = [&](std::uint64_t seed, std::vector<Request>& requests,
                   std::vector<Planned>& plan, std::vector<int>& hot) {
    // The requests are a fixed set, the same for every seed: the hot set
    // and, per class, a fixed sequence of distinct kernels cycling through
    // the five families. The class of each slot comes from a fixed count
    // per class; the seed shuffles the slots and picks the hot repeats.
    // Every run then sends the same work, and its figures differ only by
    // order and by the host.
    Rng fixed(0x726f75746564ULL);
    std::set<std::string> used;
    std::size_t familyTurn = 0;
    auto kernelRequest = [&](const std::string& cls, Kind kind) {
      const std::string& fam = families()[familyTurn++ % families().size()];
      const KernelSpec k = randomKernel(fixed, fam, used);
      Request r;
      r.cls = cls;
      r.family = fam;
      r.kind = kind;
      r.source = k.source;
      r.signal = k.signal;
      if (kind == Kind::Advise)
        r.mode = fixed.below(2) ? pa::Mode::Scratchpad : pa::Mode::WayPartition;
      if (kind == Kind::Malformed) r.source = corruptSource(fixed, r.source);
      requests.push_back(std::move(r));
      return static_cast<int>(requests.size()) - 1;
    };
    for (int i = 0; i < 12; ++i) hot.push_back(kernelRequest("hot", Kind::Explore));
    for (int i = 0; i < 4; ++i) hot.push_back(kernelRequest("advise_hot", Kind::Advise));
    const i64 slots = static_cast<i64>(rate * openSeconds);
    // Class shares: the benchmark's choice, not a measured trace. Hot
    // repeats, the cache's purpose, are the majority; the rarest classes
    // (cold Advise, bursts) still get about 30 slots in a 30 s run.
    enum Slot { HotSlot, AdviseHotSlot, ColdSlot, AdviseColdSlot, BurstSlot, MalformedSlot };
    const std::pair<Slot, int> shares[] = {{HotSlot, 60},   {AdviseHotSlot, 12},
                                           {ColdSlot, 12},  {AdviseColdSlot, 4},
                                           {BurstSlot, 4},  {MalformedSlot, 8}};
    std::vector<Slot> classes;
    std::map<Slot, std::vector<int>> fresh;
    for (const auto& [slot, percent] : shares) {
      const i64 n = slots * percent / 100;
      for (i64 i = 0; i < n; ++i) {
        classes.push_back(slot);
        if (slot == ColdSlot) fresh[slot].push_back(kernelRequest("cold", Kind::Explore));
        if (slot == AdviseColdSlot)
          fresh[slot].push_back(kernelRequest("advise_cold", Kind::Advise));
        if (slot == BurstSlot) fresh[slot].push_back(kernelRequest("burst", Kind::Explore));
        if (slot == MalformedSlot)
          fresh[slot].push_back(kernelRequest("malformed", Kind::Malformed));
      }
    }
    Rng rng(seed);
    for (std::size_t i = classes.size(); i > 1; --i)
      std::swap(classes[i - 1], classes[static_cast<std::size_t>(rng.below(static_cast<i64>(i)))]);
    std::map<Slot, std::size_t> taken;
    for (std::size_t i = 0; i < classes.size(); ++i) {
      const double at = 1000.0 * static_cast<double>(i) / rate;
      const Slot c = classes[i];
      if (c == HotSlot) {
        plan.push_back({at, hot[static_cast<std::size_t>(rng.below(12))]});
      } else if (c == AdviseHotSlot) {
        plan.push_back({at, hot[static_cast<std::size_t>(12 + rng.below(4))]});
      } else {
        const int idx = fresh[c][taken[c]++];
        for (int b = 0; b < (c == BurstSlot ? burst : 1); ++b) plan.push_back({at, idx});
      }
    }
  };
  std::vector<Request> requests;
  std::vector<Planned> plan;
  std::vector<int> hot;
  build(args.seed, requests, plan, hot);
  const std::uint64_t digest = planDigest(requests, plan);
  bool deterministic = false;
  {
    std::vector<Request> r2;
    std::vector<Planned> p2;
    std::vector<int> h2;
    build(args.seed, r2, p2, h2);
    deterministic = planDigest(r2, p2) == digest;
  }
  std::printf("stream digest %016llx (%zu requests planned, %zu distinct)%s\n",
              static_cast<unsigned long long>(digest), plan.size(), requests.size(),
              deterministic ? "" : " NOT DETERMINISTIC");

  // References (materialized engine) for every request, before any timing;
  // the traced run also replays each cold Explore stage by stage.
  bool refsOk = true;
  std::map<std::string, std::vector<double>> refMs;
  for (Request& r : requests) {
    const Clock::time_point t0 = Clock::now();
    refsOk = computeReference(r) && refsOk;
    refMs[r.family + (r.kind == Kind::Advise ? "/advise" : "")].push_back(
        msBetween(t0, Clock::now()));
  }
  for (const auto& [fam, ms] : refMs)
    std::printf("reference %-14s %4zu requests, median %.3f ms\n", fam.c_str(),
                ms.size(), median(ms));
  std::map<std::string, double> v;
  Tally tally;
  bool traceOk = true;
  if (args.trace) {
    Tracer stages;
    std::map<std::string, double> counts;
    std::map<std::string, i64> reasons;
    i64 cold = 0;
    for (const Request& r : requests) {
      if (r.kind != Kind::Explore || r.cls == "hot") continue;
      auto p = dr::frontend::compileKernelChecked(r.source);
      const ReplayResult rr =
          replayExplore(*p, signalIndex(*p, r.signal), nullptr, &r.expected, &stages);
      ++cold;
      if (!rr.mismatch.empty()) {
        std::printf("replay mismatch (%s): %s\n", r.family.c_str(), rr.mismatch.c_str());
        traceOk = false;
      }
      counts["analytic.knees_points_walked"] += static_cast<double>(rr.kneePointsWalked);
      counts["simcore.events_total"] += static_cast<double>(rr.eventsTotal);
      counts["simcore.events_simulated"] += static_cast<double>(rr.eventsSimulated);
      counts["hierarchy.chains_enumerated"] += static_cast<double>(rr.chainsEnumerated);
      counts["hierarchy.pareto_kept"] += static_cast<double>(rr.paretoKept);
      counts[rr.symbolicAccepted ? "analytic.symbolic_accepted" : "analytic.symbolic_rejected"] += 1;
      if (!rr.symbolicAccepted) ++reasons[rr.symbolicReason];
    }
    const auto self = stages.selfUs();
    const double n = static_cast<double>(std::max<i64>(1, cold));
    for (const char* stage :
         {"explorer.prepare", "analytic.points", "analytic.multilevel", "analytic.knees",
          "analytic.symbolic", "simcore.curve", "hierarchy.chains", "hierarchy.pareto"}) {
      auto it = self.find(stage);
      v[std::string(stage) + "_us"] = it == self.end() ? 0 : it->second / n;
    }
    for (const auto& [name, c] : counts) v[name] = c;
    v["simcore.simulated_ratio"] =
        counts["simcore.events_total"] > 0
            ? counts["simcore.events_simulated"] / counts["simcore.events_total"] : 0;
    v["hierarchy.pareto_ratio"] =
        counts["hierarchy.chains_enumerated"] > 0
            ? counts["hierarchy.pareto_kept"] / counts["hierarchy.chains_enumerated"] : 0;
    std::vector<std::pair<i64, std::string>> top;
    for (const auto& [reason, k] : reasons) top.push_back({k, reason});
    std::sort(top.rbegin(), top.rend());
    for (std::size_t i = 0; i < top.size() && i < 3; ++i)
      std::printf("symbolic rejected x%lld: %s\n", static_cast<long long>(top[i].first),
                  top[i].second.c_str());
  }
  std::printf("reference replies took %.3f s from process start (not in setup_s)\n",
              std::chrono::duration<double>(Clock::now() - processStart).count());

  // Set-up, eleven times: two TCP shards with fresh memory caches
  // (datareuse_serve's default; see README.md for why no warm-journal
  // directory) and the router, then warm the hot set through the router;
  // the median is setup_s, the last one serves.
  std::vector<std::unique_ptr<sv::Server>> shards;
  std::unique_ptr<sv::Router> router;
  std::vector<double> setupReps, startReps, coldMs;
  bool warmOk = true;
  for (int rep = 0; rep < 11; ++rep) {
    router.reset();
    shards.clear();
    const Clock::time_point t0 = Clock::now();
    sv::RouterOptions ro;
    ro.listen = "127.0.0.1:0";
    for (int s = 0; s < 2; ++s) {
      sv::ServerOptions so;
      so.endpoint = "127.0.0.1:0";
      shards.push_back(std::make_unique<sv::Server>(so));
      if (!shards.back()->start().isOk()) {
        std::fprintf(stderr, "shard failed to start\n");
        return 1;
      }
      ro.shards.push_back(endpointString(shards.back()->boundEndpoint()));
    }
    router = std::make_unique<sv::Router>(ro);
    if (!router->start().isOk()) {
      std::fprintf(stderr, "router failed to start\n");
      return 1;
    }
    startReps.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
    sv::Client client(clientOptions(endpointString(router->boundEndpoint())));
    for (int idx : hot) {
      const Request& r = requests[static_cast<std::size_t>(idx)];
      const Clock::time_point c0 = Clock::now();
      const bool ok = send(client, r);
      if (r.kind == Kind::Explore) coldMs.push_back(msBetween(c0, Clock::now()));
      warmOk = warmOk && ok;
    }
    setupReps.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
  }
  std::printf("set-up: start %.4f s, start+warm %.4f s (medians of %zu; reps",
              median(startReps), median(setupReps), setupReps.size());
  for (std::size_t i = 0; i < setupReps.size(); ++i)
    std::printf(" %.6f/%.4f", startReps[i], setupReps[i]);
  std::printf(")\n");
  const std::string endpoint = endpointString(router->boundEndpoint());
  std::vector<const sv::Server*> servers = {shards[0].get(), shards[1].get()};

  Metrics m;
  Tracer tracer;
  const dr::service::MetricsSnapshot before = sumCounters(servers);
  const sv::RouterStats rBefore = router->stats();
  const Phases ph = runPhases(requests, plan, hot, senders, clients, openSeconds,
                              closedSeconds, endpoint, args.seed,
                              args.trace ? &tracer : nullptr, servers);
  const std::vector<Sample>& open = ph.open;
  const std::vector<sv::ClientStats>& cstats = ph.clientStats;
  const dr::service::MetricsSnapshot after = sumCounters(servers);
  const sv::RouterStats rAfter = router->stats();
  const double workers = 2.0 * sv::ServerOptions{}.workers;
  const double utilisation = ph.busyUs / (ph.openWallUs * workers);
  {
    double sendUs = 0;
    for (const Sample& s : open) sendUs += s.rttUs;
    std::printf("shard utilisation %.4f (%.1f ms busy over %.1f s x %g workers); "
                "senders busy %.4f\n",
                utilisation, ph.busyUs / 1000.0, ph.openWallUs / 1e6, workers,
                sendUs / (ph.openWallUs * senders));
  }
  const GenCheck gen = generatorCheck(open);
  const bool admissionOk = admissionClean(before, after);
  {
    i64 retries = 0;
    for (const sv::ClientStats& c : cstats) retries += c.retries;
    std::printf("router: hedges %lld (won %lld), failovers %lld, health flaps "
                "%lld, exhausted %lld; shards: queue high-water %lld, shed "
                "%lld, tightened %lld, joins %lld; client retries %lld\n",
                static_cast<long long>(rAfter.hedgesLaunched - rBefore.hedgesLaunched),
                static_cast<long long>(rAfter.hedgesWon - rBefore.hedgesWon),
                static_cast<long long>(rAfter.failovers - rBefore.failovers),
                static_cast<long long>(rAfter.healthFlaps - rBefore.healthFlaps),
                static_cast<long long>(rAfter.exhausted - rBefore.exhausted),
                static_cast<long long>(after.queueDepthHighWater),
                static_cast<long long>(after.shedQueueFull + after.shedQueueWait -
                                       before.shedQueueFull - before.shedQueueWait),
                static_cast<long long>(after.deadlinesTightened - before.deadlinesTightened),
                static_cast<long long>(after.inflightJoins - before.inflightJoins),
                static_cast<long long>(retries));
  }
  for (const Sample& s : open)
    tally.record(requests[static_cast<std::size_t>(s.request)].cls, s.ok);

  auto isCold = [](const Request& r) {
    return r.kind == Kind::Explore && (r.cls == "cold" || r.cls == "burst");
  };
  if (!args.trace) {
    for (const Sample& s : ph.closed)
      tally.record("closed_" + requests[static_cast<std::size_t>(s.request)].cls, s.ok);
    std::vector<double> allLat, rtt, closedLat;
    for (const Sample& s : open) {
      allLat.push_back(s.latencyMs);
      rtt.push_back(s.rttUs / 1000.0);
    }
    for (const Sample& s : ph.closed) closedLat.push_back(s.latencyMs);
    const Tail tail = windowedTail(open);
    std::printf("open loop: latency p50 %.4f ms, round trip p50 %.4f ms; "
                "closed loop: p50 %.4f ms, p99 %.4f ms\n",
                median(allLat), median(rtt), median(closedLat),
                quantile(closedLat, 0.99));
    m.set("setup_s", median(setupReps), "s");
    m.set("p50_ms", median(allLat), "ms");
    m.set("tail_ms", tail.value, "ms");
    m.set("throughput_rps", median(ph.windowRps), "1/s");
    m.set("explore_geomean_ms",
          groupGeomean(open, requests,
                       [&](const Request& r) { return isCold(r) ? r.family : ""; }),
          "ms");
    m.set("advise_p50_ms",
          median(latencies(open, requests, [](const Request& r) { return r.kind == Kind::Advise; })),
          "ms");
    m.set("hot_p50_ms",
          median(latencies(open, requests, [](const Request& r) { return r.cls == "hot"; })),
          "ms");
    m.set("cold_p50_ms", median(latencies(open, requests, isCold)), "ms");
  } else {
    serverDeltas(before, after, v);
    std::map<std::string, std::vector<double>> rtt;
    std::vector<double> hotLat;
    for (const Sample& s : open) {
      const Request& r = requests[static_cast<std::size_t>(s.request)];
      const std::string cls = r.kind == Kind::Advise ? "advise"
                              : r.kind == Kind::Malformed ? "malformed"
                              : r.cls == "hot" ? "hot" : "cold";
      rtt[cls].push_back(s.rttUs);
      if (cls == "hot") hotLat.push_back(s.latencyMs);
    }
    for (const char* cls : {"hot", "cold", "advise", "malformed"})
      v[std::string("client.") + cls + "_us"] = mean(rtt[cls]);
    v["client.hot_p99_ms"] = quantile(hotLat, 0.99);
    double retries = 0;
    for (const sv::ClientStats& c : cstats) retries += static_cast<double>(c.retries);
    v["client.retries"] = retries;
    const double hedges = static_cast<double>(rAfter.hedgesLaunched - rBefore.hedgesLaunched);
    v["router.hedges_launched"] = hedges;
    v["router.hedge_win_ratio"] =
        hedges > 0 ? static_cast<double>(rAfter.hedgesWon - rBefore.hedgesWon) / hedges : 0;
    v["router.failovers"] = static_cast<double>(rAfter.failovers - rBefore.failovers);
    v["shard.utilisation"] = utilisation;
    v["gen.late_p50_ms"] = gen.lateP50;
    v["gen.late_p99_ms"] = gen.lateP99;

    // Router hop: hot Explores sent straight to their owning shard against
    // the same requests through the router, interleaved.
    {
      std::vector<std::string> shardEps = {endpointString(shards[0]->boundEndpoint()),
                                           endpointString(shards[1]->boundEndpoint())};
      sv::Client viaRouter(clientOptions(endpoint));
      std::vector<std::unique_ptr<sv::Client>> direct;
      for (const std::string& ep : shardEps)
        direct.push_back(std::make_unique<sv::Client>(clientOptions(ep)));
      std::vector<double> routed, straight;
      const dr::service::MetricsSnapshot hb = sumCounters(servers);
      for (int round = 0; round < 40; ++round)
        for (int idx : hot) {
          const Request& r = requests[static_cast<std::size_t>(idx)];
          if (r.kind != Kind::Explore) continue;
          auto p = dr::frontend::compileKernelChecked(r.source);
          const int owner = router->ring().primary(
              ex::exploreConfigHash(*p, signalIndex(*p, r.signal), {}));
          Clock::time_point t0 = Clock::now();
          const bool ok1 = send(viaRouter, r);
          routed.push_back(usBetween(t0, Clock::now()));
          t0 = Clock::now();
          const bool ok2 = send(*direct[static_cast<std::size_t>(owner)], r);
          straight.push_back(usBetween(t0, Clock::now()));
          traceOk = traceOk && ok1 && ok2;
        }
      v["router.hop_us"] = median(routed) - median(straight);
      // Wire: a hit's round trip straight to its shard minus the shards'
      // mean handling time of the hits in this block (both paths).
      const dr::service::MetricsSnapshot ha = sumCounters(servers);
      const double handled =
          static_cast<double>(ha.exploreLatency.count - hb.exploreLatency.count);
      v["service.wire_us"] =
          mean(straight) -
          (handled > 0 ? static_cast<double>(ha.exploreLatency.totalUs -
                                             hb.exploreLatency.totalUs) / handled
                       : 0.0);
    }
    v["trace.overhead_ratio"] = tracingOverhead(
        requests, hot, clients, closedSeconds, endpoint, args.seed);
    replayHotPath(requests, hot, 20, v);
    v["trace.self_sum_ratio"] = requestCoverage(tracer);
    std::printf("trace: gen.wait and client.* self times sum to %.4f of the "
                "request spans (tolerance 0.02)\n",
                v["trace.self_sum_ratio"]);
    if (std::abs(v["trace.self_sum_ratio"] - 1.0) > 0.02) traceOk = false;
    fillPerLayer(m, v);
  }
  if (!args.trace) {
    m.set("ok_ratio",
          static_cast<double>(tally.attempted() - tally.failed()) /
              static_cast<double>(std::max<i64>(1, tally.attempted())),
          "ratio");
    m.set("peak_rss_mb", peakRssMb(), "MiB");
  }
  router->requestShutdown();
  router->wait();
  for (auto& s : shards) {
    s->requestShutdown();
    s->wait();
  }
  tally.print();
  if (!refsOk) std::printf("reference computation failed\n");
  if (!warmOk) std::printf("set-up replies failed\n");
  if (!traceOk) std::printf("trace checks failed\n");
  printResult(refsOk && warmOk && traceOk && gen.valid && admissionOk &&
                  deterministic && tally.failed() == 0,
              tally.attempted(), tally.failed(), m);
  return 0;
}

}  // namespace drb
