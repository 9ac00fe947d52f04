// Fleet-level reader supervision: deadline detection, bounded-backoff
// restarts, and the per-reader health state machine.
//
// The paper assumes the reader survives the whole inventory. A warehouse
// deployment does not get that luxury: readers crash, stall behind RF
// interference, and reboot. The supervisor is the deterministic control
// loop that watches a fleet of readers and decides *when* each one is
// healthy, degraded, down, or recovering — it never touches a clock or an
// RNG, only the scheduling-tick counter its caller advances, so the whole
// state machine is unit-testable tick by tick and byte-identical across
// serial and pooled fleet runs.
//
// Responsibilities and non-responsibilities:
//   * detects missed round deadlines (a reader that last made progress more
//     than `degraded_after_ticks` ago degrades; `down_after_ticks` escalates
//     to down) and schedules restarts with bounded exponential backoff;
//   * accepts fault-injector verdicts (note_crash / note_stall /
//     note_spontaneous_restart) from the fleet engine;
//   * records every health transition in a drainable log so the obs layer
//     can synthesize events without the supervisor depending on obs sinks;
//   * does NOT move tags: handoff of a downed reader's undelivered tags is
//     the fleet engine's job (core/deployment.hpp), budget-gated by the
//     shared RecoveryCoordinator.
//
// Hot-path contract: with no faults firing, note_round_complete + advance
// allocate nothing (tests/test_alloc_guard.cpp); the transition log only
// grows when health actually changes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "obs/health.hpp"

namespace rfid::fault {

/// Deadline and restart policy, in scheduling ticks (one tick = one fleet
/// scheduling step; the fleet engine gives every live reader one round per
/// tick, so ticks are the natural deadline unit).
struct SupervisorConfig final {
  /// Ticks without a completed round before kHealthy -> kDegraded.
  std::uint64_t degraded_after_ticks = 2;
  /// Ticks without a completed round before escalation to kDown.
  std::uint64_t down_after_ticks = 6;
  /// First restart is scheduled this many ticks after going down...
  std::uint64_t backoff_initial_ticks = 1;
  /// ...and each subsequent restart waits multiplier times longer...
  std::uint64_t backoff_multiplier = 2;
  /// ...capped here, so a flapping reader retries forever but slowly.
  std::uint64_t backoff_max_ticks = 16;
  /// Restarts allowed per reader before the supervisor declares it
  /// permanently down and stops scheduling (its tags must be handed off).
  std::uint32_t max_restarts = 8;
};

/// One health-state change, in the order it happened. `tick` is the
/// scheduling tick that triggered the transition.
struct HealthTransition final {
  std::size_t reader = 0;
  std::uint64_t tick = 0;
  obs::ReaderHealth from = obs::ReaderHealth::kHealthy;
  obs::ReaderHealth to = obs::ReaderHealth::kHealthy;
};

class ReaderSupervisor final {
 public:
  ReaderSupervisor(std::size_t readers, const SupervisorConfig& config);

  [[nodiscard]] std::size_t reader_count() const noexcept {
    return slots_.size();
  }
  [[nodiscard]] const SupervisorConfig& config() const noexcept {
    return config_;
  }

  // --- Reader progress and fault-injector verdicts --------------------------

  /// A completed round at `tick` proves liveness: clears the deadline clock,
  /// heals kDegraded back to kHealthy, and confirms kRecovering -> kHealthy.
  void note_round_complete(std::size_t reader, std::uint64_t tick);

  /// Crash fault: the reader goes kDown immediately and a restart is
  /// scheduled with the current backoff (or the reader goes permanently
  /// down once its restart budget is spent).
  void note_crash(std::size_t reader, std::uint64_t tick);

  /// Stall fault applied by the injector (accounting only — the stalled
  /// reader simply stops completing rounds and the deadline machinery
  /// degrades/escalates it like any other silence).
  void note_stall(std::size_t reader);

  /// Spontaneous reboot fault: the reader keeps its tags but loses its
  /// session; health goes kRecovering and the restart counts against the
  /// same bounded budget as supervisor-driven restarts.
  void note_spontaneous_restart(std::size_t reader, std::uint64_t tick);

  // --- Supervisor heartbeat -------------------------------------------------

  /// Deadline sweep at `tick`: degrades silent readers, escalates long
  /// silences to kDown (scheduling a restart), and re-downs a kRecovering
  /// reader whose restart never produced a round. Call once per tick after
  /// the readers ran.
  void advance(std::uint64_t tick);

  /// True when `reader` is kDown with a scheduled restart due at or before
  /// `tick`. The fleet engine then rebuilds the reader and confirms with
  /// begin_restart().
  [[nodiscard]] bool restart_due(std::size_t reader,
                                 std::uint64_t tick) const;

  /// kDown -> kRecovering: consumes one restart from the budget and doubles
  /// the backoff for the next failure (capped). Precondition: restart_due.
  void begin_restart(std::size_t reader, std::uint64_t tick);

  /// True once the reader spent its restart budget: it will never be
  /// scheduled again and its tags must be rehomed.
  [[nodiscard]] bool permanently_down(std::size_t reader) const {
    return slots_[reader].permanent;
  }

  // --- Queries --------------------------------------------------------------

  [[nodiscard]] obs::ReaderHealth health(std::size_t reader) const {
    return slots_[reader].health;
  }
  [[nodiscard]] std::uint64_t crashes(std::size_t reader) const {
    return slots_[reader].crashes;
  }
  [[nodiscard]] std::uint64_t stalls(std::size_t reader) const {
    return slots_[reader].stalls;
  }
  [[nodiscard]] std::uint64_t restarts(std::size_t reader) const {
    return slots_[reader].restarts;
  }

  /// Every transition since the last clear_transitions(), in order.
  [[nodiscard]] const std::vector<HealthTransition>& transitions()
      const noexcept {
    return transitions_;
  }
  void clear_transitions() noexcept { transitions_.clear(); }

 private:
  struct Slot final {
    obs::ReaderHealth health = obs::ReaderHealth::kHealthy;
    std::uint64_t last_progress_tick = 0;
    std::uint64_t restart_at_tick = 0;
    std::uint64_t backoff_ticks = 0;  ///< wait before the *next* restart
    std::uint64_t crashes = 0;
    std::uint64_t stalls = 0;
    std::uint64_t restarts = 0;
    bool restart_scheduled = false;
    bool permanent = false;
  };

  void transition(std::size_t reader, std::uint64_t tick,
                  obs::ReaderHealth to);
  /// Enters kDown and either schedules a restart after the current backoff
  /// or, with the budget spent, marks the reader permanently down.
  void go_down(std::size_t reader, std::uint64_t tick);

  SupervisorConfig config_;
  std::vector<Slot> slots_;
  std::vector<HealthTransition> transitions_;
};

}  // namespace rfid::fault
