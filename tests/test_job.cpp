#include "workload/job.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <utility>

#include "helpers.hpp"
#include "support/check.hpp"

namespace librisk::workload {
namespace {

using librisk::testing::JobBuilder;
using librisk::testing::make_job;

TEST(Job, AbsoluteDeadline) {
  const Job j = make_job(1, 100.0, 50.0, 75.0);
  EXPECT_DOUBLE_EQ(j.absolute_deadline(), 175.0);
}

TEST(Job, DeadlineFactor) {
  const Job j = make_job(1, 0.0, 50.0, 125.0);
  EXPECT_DOUBLE_EQ(j.deadline_factor(), 2.5);
}

TEST(Job, ValidateAcceptsWellFormed) {
  EXPECT_NO_THROW(make_job(1, 0.0, 10.0, 20.0).validate());
}

TEST(Job, ValidateRejectsBadFields) {
  EXPECT_THROW(make_job(1, -1.0, 10.0, 20.0).validate(), CheckError);
  EXPECT_THROW(make_job(1, 0.0, 10.0, 0.0).validate(), CheckError);
  EXPECT_THROW(make_job(1, 0.0, 10.0, 20.0, 0).validate(), CheckError);

  Job no_runtime = make_job(1, 0.0, 10.0, 20.0);
  no_runtime.actual_runtime = 0.0;
  EXPECT_THROW(no_runtime.validate(), CheckError);

  Job no_estimate = make_job(1, 0.0, 10.0, 20.0);
  no_estimate.user_estimate = -5.0;
  EXPECT_THROW(no_estimate.validate(), CheckError);

  Job no_sched_estimate = make_job(1, 0.0, 10.0, 20.0);
  no_sched_estimate.scheduler_estimate = 0.0;
  EXPECT_THROW(no_sched_estimate.validate(), CheckError);
}

TEST(Job, ValidateRejectsNonFiniteTimes) {
  using Field = double Job::*;
  const std::pair<const char*, Field> fields[] = {
      {"submit_time", &Job::submit_time},
      {"actual_runtime", &Job::actual_runtime},
      {"user_estimate", &Job::user_estimate},
      {"scheduler_estimate", &Job::scheduler_estimate},
      {"deadline", &Job::deadline}};
  for (const auto& [name, field] : fields) {
    for (const double bad : {std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::quiet_NaN()}) {
      Job job = make_job(1, 0.0, 10.0, 20.0);
      job.*field = bad;
      EXPECT_THROW(job.validate(), CheckError) << name << " = " << bad;
    }
  }
}

TEST(Job, UrgencyToString) {
  EXPECT_STREQ(to_string(Urgency::High), "high");
  EXPECT_STREQ(to_string(Urgency::Low), "low");
  EXPECT_STREQ(to_string(Urgency::Unspecified), "unspecified");
}

TEST(ValidateTrace, AcceptsSortedTrace) {
  const std::vector<Job> jobs{make_job(1, 0.0, 10.0, 20.0),
                              make_job(2, 5.0, 10.0, 20.0),
                              make_job(3, 5.0, 10.0, 20.0)};
  EXPECT_NO_THROW(validate_trace(jobs));
}

TEST(ValidateTrace, RejectsUnsorted) {
  const std::vector<Job> jobs{make_job(1, 10.0, 10.0, 20.0),
                              make_job(2, 5.0, 10.0, 20.0)};
  EXPECT_THROW(validate_trace(jobs), CheckError);
}

TEST(SortBySubmit, OrdersByTimeThenId) {
  std::vector<Job> jobs{make_job(3, 5.0, 1.0, 2.0), make_job(1, 5.0, 1.0, 2.0),
                        make_job(2, 1.0, 1.0, 2.0)};
  sort_by_submit(jobs);
  EXPECT_EQ(jobs[0].id, 2);
  EXPECT_EQ(jobs[1].id, 1);
  EXPECT_EQ(jobs[2].id, 3);
}

TEST(JobBuilderTest, DefaultsAreConsistent) {
  const Job j = JobBuilder(7).set_runtime(100.0).build();
  EXPECT_EQ(j.id, 7);
  EXPECT_DOUBLE_EQ(j.user_estimate, 100.0);
  EXPECT_DOUBLE_EQ(j.scheduler_estimate, 100.0);
  EXPECT_DOUBLE_EQ(j.deadline, 200.0);
  EXPECT_EQ(j.num_procs, 1);
  EXPECT_NO_THROW(j.validate());
}

TEST(JobBuilderTest, ExplicitOverridesStick) {
  const Job j =
      JobBuilder(8).deadline(42.0).estimate(7.0).set_runtime(100.0).build();
  EXPECT_DOUBLE_EQ(j.deadline, 42.0);
  EXPECT_DOUBLE_EQ(j.user_estimate, 7.0);
  EXPECT_DOUBLE_EQ(j.actual_runtime, 100.0);
}

}  // namespace
}  // namespace librisk::workload
