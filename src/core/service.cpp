#include "core/service.hpp"

#include <chrono>
#include <cmath>
#include <limits>
#include <optional>
#include <stdexcept>
#include <utility>

namespace cnash::core {

namespace {

std::size_t resolve_pool_size(std::size_t threads) {
  if (threads > 0) return threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

}  // namespace

/// One submitted job. All mutable state is guarded by the service mutex;
/// `prepared` is written once under the lock before any unit is dispatched,
/// so workers running units read it race-free.
struct SolverService::Job {
  // Resolved backend + request until prepared.
  const SolverBackend* backend = nullptr;
  std::optional<SolveRequest> request;
  bool prepare_claimed = false;

  std::unique_ptr<PreparedJob> prepared;
  std::size_t total = 0;      // num_units once prepared
  std::size_t next_unit = 0;  // next unit index to dispatch
  std::size_t in_flight = 0;  // units (or the prepare step) currently running
  std::size_t done = 0;       // units completed
  std::size_t cap = 0;        // per-job in-flight cap (0 = none)
  std::vector<std::vector<SolveSample>> slots;  // per-unit samples

  std::exception_ptr error;  // first failure; remaining units are skipped
  /// Result delivery: on_complete is called exactly once (submit() installs
  /// one that fulfils its future).
  JobHooks hooks;
  /// Running best-so-far aggregates for ProgressSnapshot, updated under the
  /// service mutex as units complete (completion order, not unit order).
  std::size_t agg_nash = 0;
  std::size_t agg_valid = 0;
  double agg_best = std::numeric_limits<double>::quiet_NaN();
  std::chrono::steady_clock::time_point submitted;
  /// First step (prepare or unit) already handed to a worker — the edge that
  /// defines the job's queue-wait sample.
  bool dispatched = false;

  // Anytime degradation (request.deadline_s > 0): once `expired` is set by a
  // worker scan, no further units are dispatched; the job finishes when its
  // in-flight units drain and the report carries done < total, degraded.
  bool has_deadline = false;
  std::chrono::steady_clock::time_point deadline;
  bool expired = false;
};

SolverService::SolverService(ServiceOptions options)
    : registry_(options.registry ? options.registry
                                 : &SolverRegistry::global()),
      telemetry_(options.telemetry) {
  const std::size_t pool = resolve_pool_size(options.threads);
  workers_.reserve(pool);
  for (std::size_t w = 0; w < pool; ++w)
    workers_.emplace_back([this] { worker_loop(); });
}

SolverService::~SolverService() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    draining_ = true;  // reject racing submissions during teardown
    stop_ = true;
  }
  cv_.notify_all();
  // Workers keep dispatching while any job has runnable steps, so queued work
  // is finished (not abandoned) before the pool exits — destruction is an
  // implicit drain().
  for (std::thread& t : workers_) t.join();
}

std::shared_ptr<SolverService::Job> SolverService::make_job() {
  auto job = std::make_shared<Job>();
  job->submitted = std::chrono::steady_clock::now();
  return job;
}

void SolverService::submit_job(SolveRequest request, std::shared_ptr<Job> job) {
  // Submit-time validation: an unknown backend key or a request that could
  // only fail later on a worker thread resolves the job immediately with a
  // clear std::invalid_argument instead.
  const SolverBackend* backend = registry_->find(request.backend);
  std::exception_ptr invalid;
  try {
    if (!backend) registry_->at(request.backend);  // throws the known-key list
    validate_request(request);
  } catch (...) {
    invalid = std::current_exception();
  }
  if (invalid) {
    job->hooks.on_complete(SolveReport{}, invalid);
    return;
  }
  job->backend = backend;
  if (request.deadline_s > 0.0) {
    job->has_deadline = true;
    job->deadline = job->submitted + std::chrono::duration_cast<
                                         std::chrono::steady_clock::duration>(
                                         std::chrono::duration<double>(
                                             request.deadline_s));
  }
  job->request = std::move(request);
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (draining_) {
      job->hooks.on_complete(
          SolveReport{},
          std::make_exception_ptr(ServiceDrainingError(
              "SolverService: draining — not accepting new jobs")));
      return;
    }
    jobs_.push_back(std::move(job));
  }
  cv_.notify_all();
}

std::future<SolveReport> SolverService::submit(SolveRequest request) {
  // std::function needs a copyable target, so the promise is shared.
  auto promise = std::make_shared<std::promise<SolveReport>>();
  std::future<SolveReport> future = promise->get_future();
  JobHooks hooks;
  hooks.on_complete = [promise](SolveReport&& report,
                                std::exception_ptr error) {
    if (error)
      promise->set_exception(error);
    else
      promise->set_value(std::move(report));
  };
  submit_async(std::move(request), std::move(hooks));
  return future;
}

void SolverService::submit_async(SolveRequest request, JobHooks hooks) {
  auto job = make_job();
  job->hooks = std::move(hooks);
  submit_job(std::move(request), std::move(job));
}

SolveReport SolverService::solve(SolveRequest request) {
  return submit(std::move(request)).get();
}

std::size_t SolverService::pending_jobs() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return jobs_.size();
}

SolverService::QueueDepth SolverService::queue_depth() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  QueueDepth depth;
  depth.jobs = jobs_.size();
  for (const std::shared_ptr<Job>& job : jobs_) {
    if (!job->prepared) {
      // The prepare step is the job's only known unit until it runs.
      if (!job->prepare_claimed) depth.queued_units++;
    } else {
      depth.queued_units += job->total - job->next_unit;
    }
    depth.in_flight_units += job->in_flight;
  }
  return depth;
}

void SolverService::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  draining_ = true;
  cv_.wait(lock, [&] { return jobs_.empty() && finishing_ == 0; });
}

bool SolverService::draining() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return draining_;
}

void SolverService::finish(std::shared_ptr<Job> job) {
  if (job->error) {
    job->hooks.on_complete(SolveReport{}, job->error);
    return;
  }
  SolveReport report = assemble_report(*job->prepared, std::move(job->slots));
  report.units_total = job->total;
  report.units_completed = job->done;
  report.degraded = job->expired && job->done < job->total;
  report.wall_clock_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - job->submitted)
                            .count();
  job->hooks.on_complete(std::move(report), nullptr);
}

void SolverService::worker_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    // Scan the job list for the next dispatchable step: an unclaimed
    // prepare, or a unit of a prepared job below its cap. A job that hands
    // out a unit rotates to the tail, so concurrent jobs round-robin the
    // pool — a large job never starves a small one (results are unaffected:
    // units carry keyed streams).
    std::shared_ptr<Job> job;
    bool is_prepare = false;
    bool is_expiry_finish = false;
    bool first_dispatch = false;
    std::size_t unit = 0;
    // Deadlines are checked lazily, during scans only: `now` is read once per
    // scan and only when some job carries a deadline. No timed waits are
    // needed — a sleeping pool implies every pending non-expired job has
    // units in flight, and each completion re-runs this scan.
    std::chrono::steady_clock::time_point now;
    bool now_read = false;
    for (auto it = jobs_.begin(); it != jobs_.end(); ++it) {
      const std::shared_ptr<Job>& j = *it;
      if (j->error) continue;  // draining: no new units for failed jobs
      if (j->has_deadline && !j->expired) {
        if (!now_read) {
          now = std::chrono::steady_clock::now();
          now_read = true;
        }
        if (now >= j->deadline) j->expired = true;
      }
      if (!j->prepared) {
        // Prepare runs even past the deadline: the report is assembled from
        // the prepared job's metadata, so a degraded (0-unit) report still
        // needs it.
        if (j->prepare_claimed) continue;
        j->prepare_claimed = true;
        j->in_flight++;
        first_dispatch = !j->dispatched;
        j->dispatched = true;
        job = j;
        is_prepare = true;
        break;
      }
      if (j->expired) {
        if (j->in_flight == 0) {
          // Expiry discovered with nothing in flight (the post-unit check
          // below never saw `expired`): finish the job from the scan.
          job = j;
          is_expiry_finish = true;
          jobs_.erase(it);
          break;
        }
        continue;  // let in-flight units drain; dispatch nothing new
      }
      if (j->next_unit < j->total && (j->cap == 0 || j->in_flight < j->cap)) {
        unit = j->next_unit++;
        j->in_flight++;
        first_dispatch = !j->dispatched;
        j->dispatched = true;
        job = j;
        jobs_.splice(jobs_.end(), jobs_, it);
        break;
      }
    }
    if (is_expiry_finish) {
      finishing_++;  // drain() must not return before on_complete has run
      lock.unlock();
      finish(std::move(job));
      lock.lock();
      finishing_--;
      cv_.notify_all();
      continue;
    }
    if (!job) {
      if (stop_) return;
      cv_.wait(lock);
      continue;
    }

    lock.unlock();
    const auto step_start = std::chrono::steady_clock::now();
    if (first_dispatch) {
      if (telemetry_.queue_wait_seconds)
        telemetry_.queue_wait_seconds->record(
            std::chrono::duration<double>(step_start - job->submitted)
                .count());
      if (telemetry_.trace)
        telemetry_.trace->record("queue-wait", "service", job->submitted,
                                 step_start, job->hooks.trace_id);
    }
    std::exception_ptr error;
    std::unique_ptr<PreparedJob> prepared;
    std::vector<SolveSample> samples;
    {
      obs::Span span(telemetry_.trace, is_prepare ? "prepare" : "unit",
                     "service", job->hooks.trace_id);
      try {
        if (is_prepare)
          prepared = job->backend->prepare(*job->request);
        else
          samples = job->prepared->run_unit(unit);
      } catch (...) {
        error = std::current_exception();
      }
    }
    if (obs::Histogram* h =
            is_prepare ? telemetry_.prepare_seconds : telemetry_.unit_seconds)
      h->record(std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - step_start)
                    .count());
    lock.lock();

    job->in_flight--;
    if (error) {
      if (!job->error) job->error = error;
    } else if (is_prepare) {
      job->prepared = std::move(prepared);
      job->total = job->prepared->num_units();
      job->cap = job->prepared->max_parallelism;
      job->slots.resize(job->total);
      job->request.reset();  // the prepared job owns everything it needs
    } else {
      // Running best-so-far aggregates for anytime progress snapshots,
      // folded in completion order (snapshots are a live view; the final
      // report recomputes them deterministically in unit order).
      for (const SolveSample& s : samples) {
        if (s.is_nash) job->agg_nash++;
        if (!s.valid) continue;
        job->agg_valid++;
        if (std::isnan(job->agg_best) || s.objective < job->agg_best)
          job->agg_best = s.objective;
      }
      job->slots[unit] = std::move(samples);
      job->done++;
    }

    const bool finished =
        job->in_flight == 0 &&
        (job->error ||
         (job->prepared && (job->done == job->total || job->expired)));
    std::optional<ProgressSnapshot> progress;
    if (!finished && !error && !is_prepare && job->hooks.on_progress) {
      ProgressSnapshot snap;
      snap.units_total = job->total;
      snap.units_completed = job->done;
      snap.nash_count = job->agg_nash;
      snap.valid_count = job->agg_valid;
      snap.best_objective = job->agg_best;
      snap.elapsed_s = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - job->submitted)
                           .count();
      progress = snap;
    }
    if (finished) {
      for (auto it = jobs_.begin(); it != jobs_.end(); ++it)
        if (it->get() == job.get()) {
          jobs_.erase(it);
          break;
        }
      finishing_++;  // drain() must not return before on_complete has run
      lock.unlock();
      finish(std::move(job));
      lock.lock();
      finishing_--;
    } else if (progress) {
      // The callback runs outside the lock; finishing_ keeps drain() from
      // returning (and the receiver from being torn down) while it runs.
      // Another worker may complete the job's last unit concurrently, so a
      // snapshot can reach the receiver after the final report — receivers
      // correlate by job and drop late snapshots.
      finishing_++;
      lock.unlock();
      job->hooks.on_progress(*progress);
      lock.lock();
      finishing_--;
    }
    // New units may have become dispatchable (post-prepare, freed cap slot,
    // or queue head change after completion).
    cv_.notify_all();
  }
}

SolverService& SolverService::shared() {
  // Heap-allocated so the pool (and its idle workers) outlives every static
  // destructor that might still submit work; the OS reclaims it at exit.
  static SolverService* service = new SolverService(ServiceOptions{});
  return *service;
}

}  // namespace cnash::core
