// hdlint: allow-file(wall-clock) — the serving layer reads the steady clock
// to *measure* queue-wait/execute/e2e latency. Elapsed time feeds histograms
// and the Response::timing report only; detection results remain a pure
// function of (model, scene, options) — the bit-identity bench gate proves
// served results equal direct Detector::detect calls.

#include "serve/server.hpp"

#include <string>
#include <utility>

#include "pipeline/hdface_pipeline.hpp"
#include "util/check.hpp"

namespace hdface::serve {

namespace {

std::uint64_t elapsed_ns(std::chrono::steady_clock::time_point from,
                         std::chrono::steady_clock::time_point to) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(to - from).count());
}

}  // namespace

DetectionServer::DetectionServer(api::Detector detector, ServerConfig config)
    : detector_(std::move(detector)),
      config_(config),
      queue_(config.queue_depth) {
  // Warm the shared stochastic context before any concurrency: the engine's
  // per-scan prepare_concurrent() becomes a no-op, so concurrent workers
  // never race the lazy mask-pool fill.
  detector_.pipeline()->prepare_concurrent();

  std::size_t n_workers = 0;
  if (config_.start_workers) {
    n_workers = config_.workers != 0
                    ? config_.workers
                    : std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  // Shard 0 exists even without workers: step() records there.
  const std::size_t n_shards = std::max<std::size_t>(1, n_workers);
  shards_.reserve(n_shards);
  for (std::size_t i = 0; i < n_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  workers_.reserve(n_workers);
  for (std::size_t i = 0; i < n_workers; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

DetectionServer::~DetectionServer() { shutdown(); }

std::optional<api::Error> DetectionServer::check_admission_locked(
    const api::Request& request) {
  if (shutdown_) {
    counters_.rejected_shutdown += 1;
    return api::Error::shutdown("server is shutting down");
  }
  if (auto err = api::validate(request.options)) {
    counters_.rejected_invalid += 1;
    return std::move(*err);
  }
  if (request.options.kernel_backend.has_value()) {
    counters_.rejected_invalid += 1;
    return api::Error::invalid_options(
        "Request: kernel_backend is a process-global force and cannot be set "
        "on served requests");
  }
  if (request.scene.width() < detector_.window() ||
      request.scene.height() < detector_.window()) {
    counters_.rejected_invalid += 1;
    return api::Error::invalid_options(
        "Request: scene smaller than the detector window");
  }
  if (config_.per_tenant_inflight != 0) {
    const auto it = tenant_inflight_.find(request.tenant);
    if (it != tenant_inflight_.end() &&
        it->second >= config_.per_tenant_inflight) {
      counters_.rejected_tenant += 1;
      return api::Error::tenant_over_limit(
          "Request: tenant " + std::to_string(request.tenant) + " already has " +
          std::to_string(it->second) + " requests in flight");
    }
  }
  return std::nullopt;
}

DetectionServer::Submission DetectionServer::submit(api::Request request) {
  Submission submission;
  submission.queue_capacity = queue_.capacity();

  const util::MutexLock lock(admission_mutex_);
  counters_.submitted += 1;
  submission.queue_depth = queue_.size();

  if (auto rejected = check_admission_locked(request)) {
    submission.rejected = std::move(rejected);
    return submission;
  }

  Job job;
  const std::uint32_t tenant = request.tenant;
  job.request = std::move(request);
  job.admitted_at = Clock::now();
  submission.response = job.promise.get_future();
  if (!queue_.try_push(job)) {
    counters_.rejected_queue_full += 1;
    submission.rejected = api::Error::queue_full(
        "Request: queue at capacity (" + std::to_string(queue_.capacity()) +
        ")");
    submission.response = {};
    return submission;
  }
  counters_.admitted += 1;
  in_flight_ += 1;
  tenant_inflight_[tenant] += 1;
  submission.queue_depth = queue_.size();
  return submission;
}

void DetectionServer::worker_loop(std::size_t shard_index) {
  while (auto job = queue_.pop()) {
    execute_job(std::move(*job), *shards_[shard_index]);
  }
}

bool DetectionServer::step() {
  auto job = queue_.try_pop();
  if (!job) return false;
  execute_job(std::move(*job), *shards_.front());
  return true;
}

void DetectionServer::execute_job(Job job, Shard& shard) {
  const auto dequeued_at = Clock::now();
  api::Request request = std::move(job.request);
  request.options.threads = config_.engine_threads;

  // Route the scan's cache/cascade accounting through job-local sinks so the
  // server can aggregate plane behavior fleet-wide (ServerStats), while the
  // caller's own telemetry sinks still receive exactly the totals a direct
  // Detector::detect call would have merged into them.
  pipeline::EncodeCacheStats job_cache;
  pipeline::CascadeStats job_cascade;
  api::Telemetry telemetry =
      request.options.telemetry.value_or(api::Telemetry{});
  pipeline::EncodeCacheStats* caller_cache = telemetry.encode_cache;
  pipeline::CascadeStats* caller_cascade = telemetry.cascade;
  telemetry.encode_cache = &job_cache;
  telemetry.cascade = &job_cascade;
  request.options.telemetry = telemetry;

  api::Outcome<api::Response> outcome = [&] {
    if (request.options.fault_plan.has_value()) {
      // FaultSession patches shared pipeline storage (item memories, mask
      // pool, prototypes) for the scan's duration — exclusive.
      const util::WriterMutexLock model_lock(model_mutex_);
      return detector_.detect(request);
    }
    const util::ReaderMutexLock model_lock(model_mutex_);
    return detector_.detect(request);
  }();

  const auto done_at = Clock::now();
  const std::uint64_t wait_ns = elapsed_ns(job.admitted_at, dequeued_at);
  const std::uint64_t exec_ns = elapsed_ns(dequeued_at, done_at);
  const std::uint64_t total_ns = elapsed_ns(job.admitted_at, done_at);
  if (outcome.ok()) {
    outcome.value().timing = {wait_ns, exec_ns, total_ns};
  }
  if (caller_cache) caller_cache->merge(job_cache);
  if (caller_cascade) caller_cascade->merge(job_cascade);
  {
    const util::MutexLock shard_lock(shard.mutex);
    shard.queue_wait.record(wait_ns);
    shard.execute.record(exec_ns);
    shard.e2e.record(total_ns);
    shard.encode_cache.merge(job_cache);
    shard.cascade.merge(job_cascade);
  }
  {
    const util::MutexLock lock(admission_mutex_);
    finish_job_locked(request.tenant, outcome.ok());
  }
  job.promise.set_value(std::move(outcome));
}

void DetectionServer::finish_job_locked(std::uint32_t tenant, bool ok) {
  if (ok) {
    counters_.completed += 1;
  } else {
    counters_.failed += 1;
  }
  HD_CHECK(in_flight_ > 0, "DetectionServer: completion without admission");
  in_flight_ -= 1;
  const auto it = tenant_inflight_.find(tenant);
  HD_CHECK(it != tenant_inflight_.end() && it->second > 0,
           "DetectionServer: tenant accounting underflow");
  if (--it->second == 0) tenant_inflight_.erase(it);
}

void DetectionServer::shutdown() {
  {
    const util::MutexLock lock(admission_mutex_);
    shutdown_ = true;
  }
  queue_.close();
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  // Worker-less (manual) servers still owe completion to everything they
  // admitted: drain on this thread so conservation holds after shutdown.
  while (step()) {
  }
}

ServerStats DetectionServer::stats() const {
  ServerStats stats;
  {
    const util::MutexLock lock(admission_mutex_);
    stats.counters = counters_;
    stats.in_flight = in_flight_;
  }
  stats.queue_depth = queue_.size();
  stats.queue_capacity = queue_.capacity();
  stats.workers = workers_.size();
  for (const auto& shard : shards_) {
    const util::MutexLock shard_lock(shard->mutex);
    stats.queue_wait.merge(shard->queue_wait);
    stats.execute.merge(shard->execute);
    stats.e2e.merge(shard->e2e);
    stats.encode_cache.merge(shard->encode_cache);
    stats.cascade.merge(shard->cascade);
  }
  return stats;
}

}  // namespace hdface::serve
