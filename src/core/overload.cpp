#include "core/overload.hpp"

#include <stdexcept>
#include <string>

namespace librisk::core {

namespace {
/// The catalog row for `mode`, or null for a value outside the catalog.
const ModeSpec* find_mode(DegradedMode mode) noexcept {
  for (const ModeSpec& spec : kOverloadCatalog)
    if (spec.mode == mode) return &spec;
  return nullptr;
}
}  // namespace

std::string_view to_string(DegradedMode mode) noexcept {
  const ModeSpec* spec = find_mode(mode);
  return spec != nullptr ? spec->name : "unknown";
}

DegradedMode parse_degraded_mode(std::string_view name) {
  for (const ModeSpec& spec : kOverloadCatalog)
    if (spec.name == name) return spec.mode;
  throw std::invalid_argument("unknown degraded mode: " + std::string(name) +
                              " (valid: " + degraded_mode_names(", ") + ")");
}

std::string degraded_mode_names(std::string_view separator) {
  std::string names;
  for (const ModeSpec& spec : kOverloadCatalog) {
    if (!names.empty()) names += separator;
    names += spec.name;
  }
  return names;
}

std::array<DegradedMode, kDegradedModeCount> all_degraded_modes() {
  std::array<DegradedMode, kDegradedModeCount> modes{};
  for (std::size_t i = 0; i < modes.size(); ++i)
    modes[i] = kOverloadCatalog[i].mode;
  return modes;
}

const ModeSpec& mode_spec(DegradedMode mode) {
  const ModeSpec* spec = find_mode(mode);
  if (spec == nullptr)
    throw std::logic_error("mode_spec: unknown DegradedMode " +
                           std::to_string(static_cast<int>(mode)));
  return *spec;
}

void audit_catalog() {
  // Mirrors the compile-time static_assert — defense against a build that
  // somehow linked a divergent table — plus the string checks that are
  // nicer to report at runtime.
  for (std::size_t i = 0; i < kOverloadCatalog.size(); ++i) {
    const ModeSpec& spec = kOverloadCatalog[i];
    if (i > 0 && kOverloadCatalog[i - 1].mode >= spec.mode)
      throw std::logic_error("overload catalog: entry " + std::to_string(i) +
                             " is out of order");
    if ((spec.forbidden & kUniversalForbidden) != kUniversalForbidden)
      throw std::logic_error("overload catalog: mode '" +
                             std::string(spec.name) +
                             "' is missing a universal forbidden flag");
    if ((spec.forbidden & ~kAllForbidden) != 0)
      throw std::logic_error("overload catalog: mode '" +
                             std::string(spec.name) +
                             "' carries an unknown forbidden flag");
    for (std::size_t j = 0; j < i; ++j)
      if (kOverloadCatalog[j].name == spec.name)
        throw std::logic_error("overload catalog: duplicate mode name '" +
                               std::string(spec.name) + "'");
  }
  if (kOverloadCatalog[0].mode != DegradedMode::HardReject ||
      kOverloadCatalog[0].forbidden != kAllForbidden)
    throw std::logic_error(
        "overload catalog: HardReject must be entry 0 with every flag set");
}

void OverloadConfig::validate() const {
  if (find_mode(mode) == nullptr)
    throw std::invalid_argument("OverloadConfig: unknown mode");
  if (!(activation_load >= 0.0))
    throw std::invalid_argument(
        "OverloadConfig: activation_load must be >= 0");
  if (!(defer_delay > 0.0))
    throw std::invalid_argument("OverloadConfig: defer_delay must be > 0");
  if (max_deferrals < 1)
    throw std::invalid_argument("OverloadConfig: max_deferrals must be >= 1");
  if (!(downgrade_factor > 1.0))
    throw std::invalid_argument(
        "OverloadConfig: downgrade_factor must be > 1");
}

OverloadGovernor::OverloadGovernor(OverloadConfig config)
    : config_(config) {
  config_.validate();
}

bool OverloadGovernor::evaluate(sim::SimTime now, const LoadSignal& load) {
  const bool degrade =
      overload_action(config_, load) == OverloadAction::Degrade;
  if (degrade != engaged_) {
    engaged_ = degrade;
    if (degrade) ++activations_;
    // Never reached under HardReject (overload_action returns Proceed), so
    // a HardReject run emits nothing — the byte-identity guarantee.
    if (trace_ != nullptr)
      trace_->mode_transition(now, static_cast<int>(config_.mode), engaged_,
                              load.utilization());
  }
  return engaged_;
}

}  // namespace librisk::core
