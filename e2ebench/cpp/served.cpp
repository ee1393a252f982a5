// served_mix: a serve::DetectionServer fed open loop at a fixed rate with
// serve::RequestFactory's default mix (single window / multiscale / faulted
// query) under DetectOptions{} — the path served users get today. Workers
// plus the generator thread use nproc threads.
//
// hdlint: allow-file(wall-clock) — the benchmark measures elapsed time and
// paces open-loop arrivals; no timing ever feeds back into what the detector
// computes.
// hdlint: allow-file(sleep-as-sync) — open-loop arrival pacing: the sleep is
// the workload's schedule, not a stand-in for synchronization.

#include <algorithm>
#include <cmath>
#include <future>
#include <optional>
#include <thread>
#include <tuple>

#include "core/rng.hpp"
#include "pipeline/multiscale.hpp"
#include "serve/load_gen.hpp"
#include "serve/server.hpp"
#include "support.hpp"
#include "workloads.hpp"

namespace e2e {

using namespace hdface;

namespace {

// The served model has the serving bench's geometry (bench/serving_load:
// D = 2048, 16-pixel window). At D = 4096 / 32 px a multiscale request
// costs ~1.3 s, so a run of tens of seconds would hold too few requests for
// a steady p90.
constexpr std::size_t kServedDim = 2048;
constexpr std::size_t kServedWindow = 16;

// Offered load, requests/s: about a third of the closed-loop capacity of
// this server configuration (~32 requests/s with 3 workers on a 4-vCPU
// host). At half capacity the same seed's p50 swung between 48 and 79 ms from
// one run to the next: queueing behind the faulted queries' exclusive model
// lock amplifies the host's slow phases. At 10 requests/s it repeats within
// a few percent.
constexpr double kOfferedRps = 10.0;

constexpr serve::MixKind kKinds[] = {serve::MixKind::kSingleWindow,
                                     serve::MixKind::kMultiscaleScene,
                                     serve::MixKind::kFaultedQuery};

serve::ServerConfig server_config(std::size_t threads) {
  serve::ServerConfig sc;
  sc.workers = std::max<std::size_t>(1, threads - 1);  // + the generator
  sc.engine_threads = 1;
  return sc;
}

// The arrival trace and the order of request kinds are a fixed property of
// the workload, drawn once from this constant; --seed varies what each
// request carries (scenes, fault seeds). With a few hundred requests per run,
// a per-seed trace made p90 swing by half between seeds (bursts of faulted
// queries, which hold the model lock exclusively), far beyond host noise.
constexpr std::uint64_t kTraceSeed = 0x5E12E;

// Arrival offsets (s) of a Poisson process at `rate` conditioned on its
// count over [0, span): that many uniform points, sorted.
std::vector<double> arrivals(double rate, double span) {
  const auto n = static_cast<std::size_t>(std::lround(rate * span));
  std::vector<double> t(std::max<std::size_t>(1, n));
  core::Rng rng(core::mix64(kTraceSeed, 0xA221));
  for (auto& a : t) a = rng.uniform() * span;
  std::sort(t.begin(), t.end());
  return t;
}

// Request ids for `n` arrivals: the kinds appear in exactly the mix's
// proportions in a shuffled order fixed by kTraceSeed, and each slot takes
// the factory's next request of its kind, so content follows the factory
// seed while the kind sequence does not.
std::vector<std::uint64_t> plan_requests(const serve::RequestFactory& f,
                                         std::size_t n) {
  const auto& w = f.config().mix;
  const double total = w.single_window + w.multiscale_scene + w.faulted_query;
  const auto count = [&](double weight) {
    return static_cast<std::size_t>(
        std::lround(static_cast<double>(n) * weight / total));
  };
  const std::size_t n_multi = count(w.multiscale_scene);
  const std::size_t n_fault = std::min(n - n_multi, count(w.faulted_query));
  std::vector<serve::MixKind> kinds(n, serve::MixKind::kSingleWindow);
  std::fill_n(kinds.begin(), n_multi, serve::MixKind::kMultiscaleScene);
  std::fill_n(kinds.begin() + static_cast<std::ptrdiff_t>(n_multi), n_fault,
              serve::MixKind::kFaultedQuery);
  core::Rng rng(core::mix64(kTraceSeed, 0x0D3E));
  for (std::size_t i = kinds.size(); i > 1; --i) {
    std::swap(kinds[i - 1], kinds[rng.below(i)]);
  }
  std::map<serve::MixKind, std::uint64_t> next;
  std::vector<std::uint64_t> ids;
  for (const auto kind : kinds) {
    std::uint64_t& i = next[kind];
    while (f.kind_of(i) != kind) ++i;
    ids.push_back(i++);
  }
  return ids;
}

// The default mix; 16 pre-rendered scenes per kind instead of 4, so the
// cost of a run's requests does not hinge on four scenes drawn from the seed.
serve::LoadGenConfig load_config(std::uint64_t seed) {
  serve::LoadGenConfig lg;
  lg.seed = core::mix64(seed, 0x5E12E);
  lg.scene_pool = 16;
  return lg;
}

struct Sent {
  std::uint64_t id = 0;
  serve::MixKind kind{};
  Clock::time_point due{};
  Clock::time_point submitted{};
  std::future<api::Outcome<api::Response>> response;
};

double ns_to_ms(std::uint64_t ns) { return static_cast<double>(ns) / 1e6; }

}  // namespace

RunResult run_served(const RunOptions& opt) {
  const std::size_t threads = hardware_threads();
  const serve::ServerConfig sc = server_config(threads);

  // --- set-up: train + request factory + arrival schedule, several times ---
  std::vector<double> setup_s, fit_s, scenes_s;
  std::optional<Model> model;
  std::optional<serve::RequestFactory> factory;
  std::vector<double> schedule;
  std::vector<api::Request> requests;
  const serve::LoadGenConfig lg = load_config(opt.seed);
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    model.reset();
    factory.reset();
    const auto t0 = Clock::now();
    model.emplace(build_model(kServedDim, kServedWindow, false));
    const auto t1 = Clock::now();
    factory.emplace(kServedWindow, lg);
    schedule = arrivals(kOfferedRps, opt.seconds);
    requests.clear();
    for (const std::uint64_t id : plan_requests(*factory, schedule.size())) {
      requests.push_back(factory->make(id));
    }
    const auto t2 = Clock::now();
    setup_s.push_back(ms_between(t0, t2) / 1e3);
    fit_s.push_back(model->fit_s);
    scenes_s.push_back(ms_between(t1, t2) / 1e3);
  }

  // --- timed phase: open loop on the schedule ------------------------------
  HostProbe probe;
  Tracer tracer(opt.trace);
  RunResult result;
  std::vector<Sent> sent;
  std::uint64_t rejected = 0;
  serve::DetectionServer server(model->detector, sc);
  probe.sample();
  const auto start = Clock::now();
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(schedule[i]));
    // Probe the host while idle, if the next arrival leaves room for it.
    if (ms_between(Clock::now(), due) > 10.0) probe.tick();
    std::this_thread::sleep_until(due);
    Sent s;
    s.id = requests[i].id;
    s.kind = factory->kind_of(s.id);
    s.due = due;
    s.submitted = Clock::now();
    auto submission = server.submit(std::move(requests[i]));
    result.attempted += 1;
    if (!submission.admitted()) {
      rejected += 1;
      continue;
    }
    s.response = std::move(submission.response);
    sent.push_back(std::move(s));
  }

  std::vector<double> latency_ms, lag_ms;
  std::map<serve::MixKind, std::vector<double>> kind_wait, kind_exec;
  std::vector<api::Response> responses;
  std::uint64_t errors = 0;
  Clock::time_point last_done = start;
  for (auto& s : sent) {
    auto outcome = s.response.get();
    if (!outcome.ok()) {
      errors += 1;
      continue;
    }
    const api::StageNanos t = outcome.value().timing;
    const auto done = s.submitted + std::chrono::nanoseconds(t.total);
    last_done = std::max(last_done, done);
    latency_ms.push_back(ms_between(s.due, done));
    lag_ms.push_back(ms_between(s.due, s.submitted));
    kind_wait[s.kind].push_back(ns_to_ms(t.queue_wait));
    kind_exec[s.kind].push_back(ns_to_ms(t.execute));
    // Spans rebuilt from the server's own stage timing: the generator lag,
    // then queue wait and execution inside the admitted request.
    const auto root = tracer.add("serve.request", s.id, -1, s.due, done);
    tracer.add("serve.generator_lag", s.id, root, s.due, s.submitted);
    const auto dequeued = s.submitted + std::chrono::nanoseconds(t.queue_wait);
    tracer.add("serve.queue_wait", s.id, root, s.submitted, dequeued);
    tracer.add("serve.execute", s.id, root, dequeued,
               dequeued + std::chrono::nanoseconds(t.execute));
    responses.push_back(std::move(outcome).take());
  }
  const double timed_s = ms_between(start, last_done) / 1e3;
  server.shutdown();
  const serve::ServerStats stats = server.stats();
  require(stats.conserved(), "ServerStats::conserved() failed after shutdown");
  result.failed = rejected + errors;
  probe.sample();

  // --- correctness: every served response equals a direct detect ----------
  // Direct calls run at nproc engine threads (results are bit-identical at
  // any thread count); requests with identical content share one call.
  std::map<std::tuple<std::uint64_t, serve::MixKind, std::uint64_t>,
           std::uint64_t>
      direct;
  api::Detector& det = model->detector;
  for (std::size_t r = 0; r < responses.size(); ++r) {
    api::Request req = factory->make(responses[r].id);
    req.options.threads = threads;
    const std::uint64_t fault_seed =
        req.options.fault_plan ? req.options.fault_plan->seed : 0;
    const auto key = std::make_tuple(image_hash(req.scene),
                                     factory->kind_of(req.id), fault_seed);
    auto it = direct.find(key);
    if (it == direct.end()) {
      auto out = det.detect(req);
      require(out.ok(), "direct detect failed for request " +
                            std::to_string(responses[r].id));
      it = direct.emplace(key, detections_hash(out.value().detections)).first;
    }
    std::uint64_t served = detections_hash(responses[r].detections);
    if (opt.inject == "response" && r == 0) served ^= 1;
    require(served == it->second, "served response " +
                                      std::to_string(responses[r].id) +
                                      " differs from a direct detect");
  }

  if (opt.trace && !opt.spans_out.empty()) tracer.write_json(opt.spans_out);

  // --- metrics --------------------------------------------------------------
  const double p50 = median(latency_ms);
  result.end_to_end = {
      {"latency_p50_ms", p50, "ms"},
      {"latency_p90_ms", quantile(latency_ms, 0.9), "ms"},
      {"scenes_per_s",
       timed_s > 0.0 ? static_cast<double>(latency_ms.size()) / timed_s : 0.0,
       "1/s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"setup_s", median(setup_s), "s"},
  };

  std::map<std::string, double> V;
  const auto q_ms = [](const util::LatencyHistogram& h, double q) {
    return ns_to_ms(h.quantile(q));
  };
  V["serve.queue_wait_p50_ms"] = q_ms(stats.queue_wait, 0.5);
  V["serve.queue_wait_p90_ms"] = q_ms(stats.queue_wait, 0.9);
  V["serve.execute_p50_ms"] = q_ms(stats.execute, 0.5);
  V["serve.execute_p90_ms"] = q_ms(stats.execute, 0.9);
  for (const auto kind : kKinds) {
    const std::string k = "serve." + std::string(serve::mix_kind_name(kind)) + ".";
    V[k + "queue_wait_p50_ms"] = quantile(kind_wait[kind], 0.5);
    V[k + "queue_wait_p90_ms"] = quantile(kind_wait[kind], 0.9);
    V[k + "execute_p50_ms"] = quantile(kind_exec[kind], 0.5);
    V[k + "execute_p90_ms"] = quantile(kind_exec[kind], 0.9);
  }
  V["serve.rejected_queue_full"] =
      static_cast<double>(stats.counters.rejected_queue_full);
  V["serve.generator_lag_p90_ms"] = quantile(lag_ms, 0.9);
  V["setup.fit_s"] = median(fit_s);
  V["setup.scenes_s"] = median(scenes_s);
  if (opt.trace) {
    // Self time of each request root: the future hand-off outside the three
    // stages. Span recording is post hoc (from the server's own timing), so
    // a traced run executes exactly the untraced schedule: overhead 0.
    std::vector<double> self;
    for (std::size_t i = 0; i < tracer.spans().size(); ++i) {
      if (tracer.spans()[i].parent != -1) continue;
      const auto id = static_cast<std::int64_t>(i);
      self.push_back(tracer.self_ms(id) / std::max(1e-9, tracer.duration_ms(id)));
    }
    V["trace.unattributed_frac"] = median(self);
    V["trace.overhead_frac"] = 0.0;
    // Model-level kernels and the multiscale requests' pyramid, from outside.
    std::vector<image::Image> windows;
    std::vector<double> pyramid_ms;
    for (std::uint64_t i = 0; windows.size() < 32 || pyramid_ms.size() < 32; ++i) {
      const api::Request req = factory->make(i);
      if (factory->kind_of(i) == serve::MixKind::kSingleWindow) {
        if (windows.size() < 32) windows.push_back(req.scene);
      } else if (factory->kind_of(i) == serve::MixKind::kMultiscaleScene &&
                 pyramid_ms.size() < 32) {
        const auto t0 = Clock::now();
        const auto pyramid = pipeline::build_pyramid(req.scene, kServedWindow,
                                                     req.options.scales);
        pyramid_ms.push_back(ms_between(t0, Clock::now()));
        require(!pyramid.levels.empty(), "empty pyramid");
      }
    }
    V["image.pyramid_ms"] = median(pyramid_ms);
    add_scoring_rows(V, *model->detector.pipeline(), windows);
  }
  add_host_rows(V, probe);
  V["latency_samples"] = static_cast<double>(latency_ms.size());
  V["failed_frac"] =
      static_cast<double>(result.failed) / static_cast<double>(result.attempted);
  result.per_layer = layer_rows(V);

  result.info = {
      {"engine_threads", std::to_string(sc.engine_threads)},
      {"server_workers", std::to_string(sc.workers)},
      {"offered_rps", std::to_string(kOfferedRps)},
      {"latency_samples", std::to_string(latency_ms.size())},
      {"host_ref_ms", std::to_string(median(probe.samples_ms()))},
      {"timed_s", std::to_string(timed_s)},
      {"direct_calls", std::to_string(direct.size())},
  };
  return result;
}

double measure_served_capacity(const RunOptions& opt) {
  const std::size_t threads = hardware_threads();
  const serve::ServerConfig sc = server_config(threads);
  Model model = build_model(kServedDim, kServedWindow, false);
  serve::LoadGenConfig lg = load_config(opt.seed);
  lg.concurrency = sc.workers;
  lg.requests = static_cast<std::size_t>(std::max(8.0, opt.seconds * 50.0));
  const serve::RequestFactory factory(kServedWindow, lg);
  serve::DetectionServer server(model.detector, sc);
  return serve::run_closed_loop(server, factory, lg).achieved_rps;
}

}  // namespace e2e
