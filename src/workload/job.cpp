#include "workload/job.hpp"

#include <algorithm>
#include <cmath>

#include "support/check.hpp"

namespace librisk::workload {

const char* to_string(Urgency u) noexcept {
  switch (u) {
    case Urgency::High: return "high";
    case Urgency::Low: return "low";
    case Urgency::Unspecified: return "unspecified";
  }
  return "?";
}

void Job::validate() const {
  // The comparisons are false for NaN; std::isfinite also rules out ±inf.
  LIBRISK_CHECK(std::isfinite(submit_time) && submit_time >= 0.0,
                "job " << id << ": negative or non-finite submit time");
  LIBRISK_CHECK(std::isfinite(actual_runtime) && actual_runtime > 0.0,
                "job " << id << ": non-positive or non-finite runtime");
  LIBRISK_CHECK(std::isfinite(user_estimate) && user_estimate > 0.0,
                "job " << id << ": non-positive or non-finite estimate");
  LIBRISK_CHECK(std::isfinite(scheduler_estimate) && scheduler_estimate > 0.0,
                "job " << id
                       << ": non-positive or non-finite scheduler estimate");
  LIBRISK_CHECK(num_procs >= 1, "job " << id << ": needs at least one processor");
  LIBRISK_CHECK(std::isfinite(deadline) && deadline > 0.0,
                "job " << id << ": non-positive or non-finite deadline");
}

void validate_trace(const std::vector<Job>& jobs) {
  SimTime last = 0.0;
  for (const Job& j : jobs) {
    j.validate();
    LIBRISK_CHECK(j.submit_time >= last,
                  "trace not sorted by submit time at job " << j.id);
    last = j.submit_time;
  }
}

void sort_by_submit(std::vector<Job>& jobs) {
  std::stable_sort(jobs.begin(), jobs.end(), [](const Job& a, const Job& b) {
    if (a.submit_time != b.submit_time) return a.submit_time < b.submit_time;
    return a.id < b.id;
  });
}

void scale_interarrivals(std::vector<Job>& jobs, double factor) {
  InterarrivalScaler scaler(factor);
  for (Job& job : jobs) scaler.apply(job);
}

InterarrivalScaler::InterarrivalScaler(double factor) : factor_(factor) {
  LIBRISK_CHECK(factor > 0.0,
                "inter-arrival scale factor must be > 0, got " << factor);
}

void InterarrivalScaler::apply(Job& job) noexcept {
  if (!seen_first_) {
    seen_first_ = true;
    first_ = job.submit_time;
    return;  // the anchor maps to itself
  }
  job.submit_time = first_ + (job.submit_time - first_) * factor_;
}

}  // namespace librisk::workload
