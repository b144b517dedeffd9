// Overload taxonomy and graceful-degradation catalog (ROADMAP item 2,
// docs/OVERLOAD.md).
//
// Every admission policy in this repository answers pressure the same way
// the paper does: hard rejection. Production admission controls degrade
// instead — defer to a salvage lane, downgrade QoS — and the three
// hard-reject sites that grew here independently (the scheduler's
// per-reason rejections, the gateway's certificate sheds, the federation
// router's infeasible-everywhere fallback) had no shared vocabulary for it.
//
// This header is that vocabulary: a closed catalog of degraded modes where
// each mode's *activation* is a pure function of (config, load signal) —
// `overload_action` — and each mode's *license* is bounded by
// forbidden-behavior flags checked at compile time and again at startup
// (`audit_catalog`). The flags are the machine-checkable contract: a mode
// may soften WHICH test rejects a job, but no mode may ever admit past the
// Eq. 2 capacity, touch an already-admitted job, admit a structurally
// infeasible job, make a nondeterministic decision, or drop a job without
// a rejection counter hearing about it.
//
// Determinism lemma (docs/OVERLOAD.md): because the load signal is derived
// exclusively from simulator-visible state (inflight shares, busy
// processors) and `overload_action` is pure, a degraded run is a
// deterministic function of (workload, seed, config) exactly like a
// HardReject run — same-seed runs produce byte-identical .lrt traces, and
// mode transitions are themselves trace events so degraded runs stay
// replayable and `trace diff`-able. With the catalog parked at HardReject
// (the default), every consult site reduces to `false` before touching any
// state, which is how the refactor stays byte-identical to pre-catalog
// builds (tests/test_overload.cpp pins both properties).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

#include "sim/types.hpp"
#include "trace/recorder.hpp"

namespace librisk::core {

/// The closed set of degraded modes. Values are stable — they appear in
/// trace events (ModeTransition payload) and OpenMetrics labels. Values 1
/// and 2 belonged to the retired ShedTail and RelaxSigma modes and stay
/// unused, so traces written before their removal still decode.
enum class DegradedMode : std::uint8_t {
  HardReject = 0,      ///< today's behavior: every overload is a rejection
  DeferToSalvage = 3,  ///< under load, park shortfall jobs and retry later
  DowngradeQoS = 4,    ///< under load, retry shortfalls with a relaxed deadline
};
inline constexpr int kDegradedModeCount = 3;

/// The mode's wire name ("unknown" for a value outside the catalog).
[[nodiscard]] std::string_view to_string(DegradedMode mode) noexcept;
/// Inverse of to_string; throws std::invalid_argument naming the valid
/// modes on an unknown name.
[[nodiscard]] DegradedMode parse_degraded_mode(std::string_view name);
[[nodiscard]] std::array<DegradedMode, kDegradedModeCount> all_degraded_modes();
/// Every wire name in catalog order, joined by `separator` — the one list
/// help texts and error messages print.
[[nodiscard]] std::string degraded_mode_names(std::string_view separator);

/// Forbidden-behavior flags: each bit names something a mode may NEVER do.
/// The first five are universal — set on every catalog entry, enforced by
/// audit_catalog() — and are what makes a degraded mode safe to enable in
/// front of the paper's metrics. The last two distinguish the modes: a
/// mode that clears one of them is licensed to bend exactly that rule.
enum OverloadForbids : std::uint32_t {
  /// May never admit a job whose share would exceed the Eq. 2 capacity of
  /// any node it lands on (the paper's hard invariant; degraded re-tests
  /// include the total-share bound for exactly this reason).
  kForbidAdmitPastEq2 = 1u << 0,
  /// May never preempt, re-place, kill, or re-pace an already-admitted job.
  kForbidTouchAdmitted = 1u << 1,
  /// May never admit a structurally infeasible job (num_procs > cluster).
  kForbidStructuralAdmit = 1u << 2,
  /// Decision must be a pure function of simulator-visible state (no wall
  /// clock, no RNG outside the seeded workload) — the determinism lemma.
  kForbidNondeterminism = 1u << 3,
  /// Every job the mode turns away must land in a per-reason rejection
  /// counter (the sum invariants in tests/test_overload.cpp).
  kForbidDropWithoutAccount = 1u << 4,
  /// May never evaluate a job against any deadline other than the one it
  /// was submitted with. DowngradeQoS clears this.
  kForbidDeadlineRewrite = 1u << 6,
  /// Must decide at the arrival instant — no parked retries. DeferToSalvage
  /// clears this.
  kForbidDelayedDecision = 1u << 7,
};

/// The flags every mode must carry (audit-enforced).
inline constexpr std::uint32_t kUniversalForbidden =
    kForbidAdmitPastEq2 | kForbidTouchAdmitted | kForbidStructuralAdmit |
    kForbidNondeterminism | kForbidDropWithoutAccount;

/// All flag bits that exist (for audit: no entry may carry unknown bits).
inline constexpr std::uint32_t kAllForbidden =
    kUniversalForbidden | kForbidDeadlineRewrite | kForbidDelayedDecision;

/// One catalog row: the mode, its wire name, what it may never do, and a
/// one-line summary (docs/OVERLOAD.md renders the same table).
struct ModeSpec {
  DegradedMode mode;
  std::string_view name;
  std::uint32_t forbidden;
  std::string_view summary;
};

/// The catalog itself, in ascending wire-value order — audited below and
/// again at startup.
inline constexpr std::array<ModeSpec, kDegradedModeCount> kOverloadCatalog{{
    {DegradedMode::HardReject, "hard-reject", kAllForbidden,
     "reject every shortfall; the paper's behavior and the default"},
    {DegradedMode::DeferToSalvage, "defer-to-salvage",
     kUniversalForbidden | kForbidDeadlineRewrite,
     "under load, park shortfall jobs defer_delay seconds and retry"},
    {DegradedMode::DowngradeQoS, "downgrade-qos",
     kUniversalForbidden | kForbidDelayedDecision,
     "under load, re-test shortfalls with deadline x downgrade_factor"},
}};

/// Looks up the catalog row for a mode (throws std::logic_error for a value
/// outside the catalog).
[[nodiscard]] const ModeSpec& mode_spec(DegradedMode mode);

/// True when `mode` is licensed to bend the rule named by `flag` (i.e. the
/// flag is NOT in its forbidden set). A value outside the catalog is
/// licensed to nothing.
[[nodiscard]] constexpr bool mode_allows(DegradedMode mode,
                                         std::uint32_t flag) noexcept {
  for (const ModeSpec& spec : kOverloadCatalog)
    if (spec.mode == mode) return (spec.forbidden & flag) == 0;
  return false;
}

// Compile-time self-audit: the catalog is complete, strictly ordered by
// wire value, starts at HardReject, and every entry carries the universal
// flags. audit_catalog() re-checks the same properties at startup (so a
// unity build or ODR surprise cannot silently ship a different table) plus
// the name-uniqueness check that needs loops over strings.
static_assert(kOverloadCatalog.size() == kDegradedModeCount);
static_assert([] {
  for (std::size_t i = 0; i < kOverloadCatalog.size(); ++i) {
    if (i > 0 && kOverloadCatalog[i - 1].mode >= kOverloadCatalog[i].mode)
      return false;
    if ((kOverloadCatalog[i].forbidden & kUniversalForbidden) !=
        kUniversalForbidden)
      return false;
    if ((kOverloadCatalog[i].forbidden & ~kAllForbidden) != 0) return false;
    if (kOverloadCatalog[i].name.empty() || kOverloadCatalog[i].summary.empty())
      return false;
  }
  return kOverloadCatalog[0].mode == DegradedMode::HardReject;
}());
static_assert(!mode_allows(DegradedMode::HardReject, kForbidDeadlineRewrite));
static_assert(mode_allows(DegradedMode::DowngradeQoS, kForbidDeadlineRewrite));
static_assert(mode_allows(DegradedMode::DeferToSalvage,
                          kForbidDelayedDecision));

/// Startup self-audit: throws std::logic_error naming the violated property
/// if the catalog is malformed. make_scheduler / the gateway / the
/// federation run it once per construction — cheap, and it turns a bad
/// catalog edit into an immediate failure instead of a silent misbehavior.
void audit_catalog();

/// Tuning knobs for the degraded modes. The catalog decides WHETHER to
/// degrade (mode + activation_load); these decide HOW FAR each mode bends.
struct OverloadConfig {
  DegradedMode mode = DegradedMode::HardReject;
  /// Utilization fraction (LoadSignal::utilization) at or above which the
  /// degraded mode engages. Below it every mode behaves like HardReject.
  double activation_load = 0.85;
  /// DeferToSalvage: seconds to park a shortfall job before its retry.
  double defer_delay = 600.0;
  /// DeferToSalvage: retries per job before the final rejection.
  int max_deferrals = 1;
  /// DowngradeQoS: deadline multiplier (> 1) for the degraded re-test.
  double downgrade_factor = 1.5;

  /// Throws std::invalid_argument on out-of-range knobs.
  void validate() const;
};

/// The load signal every consult site feeds the catalog: admitted-but-
/// unfinished demand against total capacity, both in the same units
/// (share-units for the Libra family and the gateway, processors for EDF,
/// speed-weighted share for federation shards). Derived exclusively from
/// simulator-visible state — that is what keeps degraded runs
/// deterministic.
struct LoadSignal {
  double inflight = 0.0;  ///< admitted-but-unfinished demand
  double capacity = 0.0;  ///< total capacity in the same units

  [[nodiscard]] double utilization() const noexcept {
    return capacity > 0.0 ? inflight / capacity : 0.0;
  }
};

/// What the catalog tells a consult site to do with the next shortfall.
enum class OverloadAction : std::uint8_t {
  Proceed,  ///< behave exactly like HardReject
  Degrade,  ///< the configured mode is engaged; apply its bend
};

/// The pure activation function: Degrade iff a non-HardReject mode is
/// configured AND the load signal is at/above the activation threshold.
/// No state, no clock, no RNG — the determinism lemma hangs off this.
[[nodiscard]] constexpr OverloadAction overload_action(
    const OverloadConfig& config, const LoadSignal& load) noexcept {
  return (config.mode != DegradedMode::HardReject &&
          load.utilization() >= config.activation_load)
             ? OverloadAction::Degrade
             : OverloadAction::Proceed;
}

/// Stateful wrapper a scheduler owns: evaluates the pure function, counts
/// engagements, and emits ModeTransition trace events on every flip so
/// degraded runs stay replayable. Under HardReject it never engages and
/// never emits — the byte-identity guarantee.
class OverloadGovernor {
 public:
  OverloadGovernor() = default;
  explicit OverloadGovernor(OverloadConfig config);

  /// Borrow the scheduler's recorder (null = no trace; emissions skipped).
  void attach(trace::Recorder* recorder) noexcept { trace_ = recorder; }

  /// Evaluates the catalog against `load`, records the transition if the
  /// engaged state flipped, and returns true when the degraded mode is
  /// engaged for this decision.
  bool evaluate(sim::SimTime now, const LoadSignal& load);

  [[nodiscard]] const OverloadConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] bool engaged() const noexcept { return engaged_; }
  /// Times the governor flipped from normal to degraded.
  [[nodiscard]] std::uint64_t activations() const noexcept {
    return activations_;
  }
  /// Shorthand: true when a non-HardReject mode is configured at all (the
  /// consult sites gate their extra bookkeeping on this so HardReject runs
  /// touch no new state).
  [[nodiscard]] bool enabled() const noexcept {
    return config_.mode != DegradedMode::HardReject;
  }

 private:
  OverloadConfig config_;
  trace::Recorder* trace_ = nullptr;
  bool engaged_ = false;
  std::uint64_t activations_ = 0;
};

}  // namespace librisk::core
