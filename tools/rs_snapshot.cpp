/// \file rs_snapshot.cpp
/// \brief Snapshot inspector: prints the section tree and headline state of
///        an rs::persist container (Scaler, tenant, fleet, or rs::trace
///        serving capture).
///
/// Usage:  rs_snapshot [--verify] <snapshot-or-journal-file>
///
/// Also understands rs::wal artifacts: journal segment files (magic
/// "RSWJ", either layout version) are walked record-by-record (CRC,
/// framing, LSN contiguity, one event per payload — torn tails and padding
/// reported, pre-tail corruption fails), and journal checkpoints print
/// their WCKP metadata before the embedded fleet.
///
/// The inspector understands the current section layouts but degrades
/// gracefully: unknown top-level tags are skipped wholesale, and known
/// sections whose tail carries fields this build predates are closed with
/// ExitSection (the codec skips the unread bytes). It never mutates the
/// snapshot and never crashes on corrupt input — the codec's CRC and bounds
/// checks turn every malformation into a printed error.

#include <cstdint>
#include <fstream>
#include <streambuf>
#include <iostream>
#include <string>
#include <vector>

#include "rs/persist/persist.hpp"
#include "rs/wal/wal.hpp"

namespace {

using rs::Status;
using rs::persist::Reader;

const char* DurationKindName(std::uint8_t kind) {
  switch (kind) {
    case 0:
      return "deterministic";
    case 1:
      return "exponential";
    case 2:
      return "lognormal";
    case 3:
      return "weibull";
    case 4:
      return "uniform";
    default:
      return "?";
  }
}

std::string Indent(int depth) { return std::string(2 * depth, ' '); }

// Prints "pending: lognormal(mu, sigma)" style summaries.
Status PrintDuration(Reader* reader, int depth, const char* label) {
  RS_ASSIGN_OR_RETURN(const std::uint8_t kind, reader->ReadU8());
  RS_ASSIGN_OR_RETURN(const double p1, reader->ReadDouble());
  RS_ASSIGN_OR_RETURN(const double p2, reader->ReadDouble());
  std::cout << Indent(depth) << label << ": " << DurationKindName(kind) << '('
            << p1 << ", " << p2 << ")\n";
  return Status::OK();
}

Status PrintSpec(Reader* reader, int depth) {
  RS_RETURN_NOT_OK(reader->EnterSection(rs::persist::kTagSpec));
  RS_ASSIGN_OR_RETURN(const std::string name, reader->ReadString());
  RS_ASSIGN_OR_RETURN(const std::uint64_t params, reader->ReadU64());
  std::cout << Indent(depth) << "SPEC strategy: " << name << '\n';
  for (std::uint64_t i = 0; i < params; ++i) {
    RS_ASSIGN_OR_RETURN(const std::string key, reader->ReadString());
    RS_ASSIGN_OR_RETURN(const double value, reader->ReadDouble());
    std::cout << Indent(depth + 1) << key << " = " << value << '\n';
  }
  return reader->ExitSection();
}

Status PrintBuildContext(Reader* reader, int depth) {
  RS_RETURN_NOT_OK(reader->EnterSection(rs::persist::kTagBuildContext));
  std::cout << Indent(depth) << "CTXT build defaults:\n";
  RS_RETURN_NOT_OK(PrintDuration(reader, depth + 1, "pending"));
  RS_ASSIGN_OR_RETURN(const std::uint64_t mc, reader->ReadU64());
  RS_ASSIGN_OR_RETURN(const double interval, reader->ReadDouble());
  RS_ASSIGN_OR_RETURN(const std::uint64_t seed, reader->ReadU64());
  std::cout << Indent(depth + 1) << "mc_samples = " << mc
            << ", planning_interval = " << interval << " s, seed = " << seed
            << '\n';
  return reader->ExitSection();
}

Status PrintTrained(Reader* reader, int depth) {
  RS_RETURN_NOT_OK(reader->EnterSection(rs::persist::kTagTrained));
  RS_ASSIGN_OR_RETURN(const double dt, reader->ReadDouble());
  std::vector<double> rates;
  RS_RETURN_NOT_OK(reader->ReadDoubleVector(&rates));
  RS_ASSIGN_OR_RETURN(const std::uint64_t period, reader->ReadU64());
  std::cout << Indent(depth) << "TRND forecast: " << rates.size()
            << " bins x " << dt << " s (horizon "
            << dt * static_cast<double>(rates.size())
            << " s), detected period = " << period << " bins\n";
  return reader->ExitSection();
}

Status PrintStrategyModel(Reader* reader, int depth) {
  RS_RETURN_NOT_OK(reader->EnterSection(rs::persist::kTagStrategyModel));
  RS_ASSIGN_OR_RETURN(const std::uint32_t tag, reader->PeekSectionTag());
  std::cout << Indent(depth) << "STRA model record: "
            << rs::persist::TagToString(tag) << " ("
            << reader->remaining() << " bytes)\n";
  return reader->ExitSection();
}

Status PrintMirror(Reader* reader, int depth) {
  RS_RETURN_NOT_OK(reader->EnterSection(rs::persist::kTagMirror));
  std::cout << Indent(depth) << "MIRR serving mirror ("
            << reader->remaining() << " bytes):\n";
  RS_RETURN_NOT_OK(PrintDuration(reader, depth + 1, "pending"));
  RS_ASSIGN_OR_RETURN(const std::uint64_t seed, reader->ReadU64());
  RS_ASSIGN_OR_RETURN(const bool charge_wall, reader->ReadBool());
  RS_ASSIGN_OR_RETURN(const double creation_latency, reader->ReadDouble());
  RS_ASSIGN_OR_RETURN(const double pending_jitter, reader->ReadDouble());
  RS_ASSIGN_OR_RETURN(const bool charge_idle, reader->ReadBool());
  RS_ASSIGN_OR_RETURN(const bool had_clock, reader->ReadBool());
  RS_ASSIGN_OR_RETURN(const double retention, reader->ReadDouble());
  std::cout << Indent(depth + 1) << "seed = " << seed
            << ", creation_latency = " << creation_latency
            << " s, pending_jitter = " << pending_jitter << '\n'
            << Indent(depth + 1) << "charge_decision_wall_time = "
            << (charge_wall ? "yes" : "no")
            << ", charge_idle_until_horizon = " << (charge_idle ? "yes" : "no")
            << ", injected clock = " << (had_clock ? "yes" : "no")
            << ", retention override = " << retention << " s\n";
  RS_ASSIGN_OR_RETURN(const bool started, reader->ReadBool());
  RS_ASSIGN_OR_RETURN(const double now, reader->ReadDouble());
  RS_ASSIGN_OR_RETURN(const double next_tick, reader->ReadDouble());
  RS_ASSIGN_OR_RETURN(const std::uint64_t arrivals, reader->ReadU64());
  RS_ASSIGN_OR_RETURN(const std::uint64_t cold_starts, reader->ReadU64());
  RS_ASSIGN_OR_RETURN(const std::uint64_t creations, reader->ReadU64());
  RS_ASSIGN_OR_RETURN(const std::uint64_t deletions, reader->ReadU64());
  RS_ASSIGN_OR_RETURN(const std::uint64_t next_seq, reader->ReadU64());
  RS_ASSIGN_OR_RETURN(const std::uint64_t watermark, reader->ReadU64());
  RS_ASSIGN_OR_RETURN(const std::uint64_t callbacks, reader->ReadU64());
  std::cout << Indent(depth + 1)
            << (started ? "started" : "not yet started") << ", now = " << now
            << " s, next planning tick = " << next_tick << " s\n"
            << Indent(depth + 1) << "arrivals = " << arrivals
            << ", cold starts = " << cold_starts
            << ", creations = " << creations << ", deletions = " << deletions
            << '\n'
            << Indent(depth + 1) << "planning callbacks = " << callbacks
            << ", emissions = " << next_seq
            << " (drained through " << watermark << ")\n";
  // RNG words, schedule, live set, windows: sizes only matter here; let
  // ExitSection skip the payload.
  return reader->ExitSection();
}

Status PrintScaler(Reader* reader, int depth) {
  RS_RETURN_NOT_OK(reader->EnterSection(rs::persist::kTagScaler));
  RS_ASSIGN_OR_RETURN(const std::uint32_t layer_version, reader->ReadU32());
  std::cout << Indent(depth) << "SCLR scaler record (layer version "
            << layer_version << "):\n";
  RS_RETURN_NOT_OK(PrintSpec(reader, depth + 1));
  RS_RETURN_NOT_OK(PrintBuildContext(reader, depth + 1));
  RS_RETURN_NOT_OK(PrintTrained(reader, depth + 1));
  RS_RETURN_NOT_OK(PrintStrategyModel(reader, depth + 1));
  RS_RETURN_NOT_OK(PrintMirror(reader, depth + 1));
  return reader->ExitSection();
}

// Drift-detector summary: scores and whether it latched.
Status PrintDetector(Reader* reader, int depth) {
  RS_RETURN_NOT_OK(reader->EnterSection(rs::persist::kTagDriftDetector));
  RS_ASSIGN_OR_RETURN(const std::uint32_t version, reader->ReadU32());
  RS_ASSIGN_OR_RETURN(const double dt, reader->ReadDouble());
  RS_ASSIGN_OR_RETURN(const double origin, reader->ReadDouble());
  RS_ASSIGN_OR_RETURN(const std::uint64_t period, reader->ReadU64());
  std::vector<double> expected;
  RS_RETURN_NOT_OK(reader->ReadDoubleVector(&expected));
  RS_ASSIGN_OR_RETURN(const std::uint64_t bins_closed, reader->ReadU64());
  RS_ASSIGN_OR_RETURN(const double open_count, reader->ReadDouble());
  RS_ASSIGN_OR_RETURN(const double g_up, reader->ReadDouble());
  RS_ASSIGN_OR_RETURN(const double g_down, reader->ReadDouble());
  std::vector<double> ring;
  RS_RETURN_NOT_OK(reader->ReadDoubleVector(&ring));
  RS_ASSIGN_OR_RETURN(const double corr_cusum, reader->ReadDouble());
  RS_ASSIGN_OR_RETURN(const std::uint8_t kind, reader->ReadU8());
  RS_ASSIGN_OR_RETURN(const double fired_time, reader->ReadDouble());
  std::cout << Indent(depth) << "DRFT drift detector (version " << version
            << "): " << bins_closed << " bins closed x " << dt
            << " s from origin " << origin << " s, period = " << period
            << " bins, reference = " << expected.size() << " bins\n"
            << Indent(depth + 1) << "scores: up = " << g_up
            << ", down = " << g_down << ", profile = " << corr_cusum
            << ", open bin count = " << open_count << '\n'
            << Indent(depth + 1);
  if (kind == 0) {
    std::cout << "no drift latched\n";
  } else {
    std::cout << "LATCHED " << (kind == 1 ? "rate_shift" : "periodicity_break")
              << " at t = " << fired_time << " s\n";
  }
  return reader->ExitSection();
}

// Training-session summary: window geometry and warm-start state.
Status PrintTrainSession(Reader* reader, int depth) {
  RS_RETURN_NOT_OK(reader->EnterSection(rs::persist::kTagTrainSession));
  RS_ASSIGN_OR_RETURN(const std::uint32_t version, reader->ReadU32());
  RS_ASSIGN_OR_RETURN(const double start, reader->ReadDouble());
  RS_ASSIGN_OR_RETURN(const double dt, reader->ReadDouble());
  std::vector<double> counts;
  RS_RETURN_NOT_OK(reader->ReadDoubleVector(&counts));
  std::vector<double> warm;
  RS_RETURN_NOT_OK(reader->ReadDoubleVector(&warm));
  RS_ASSIGN_OR_RETURN(const std::uint64_t fits, reader->ReadU64());
  RS_ASSIGN_OR_RETURN(const std::uint64_t last_iters, reader->ReadU64());
  std::cout << Indent(depth) << "TSES training session (version " << version
            << "): " << counts.size() << " bins x " << dt << " s from "
            << start << " s (window end "
            << start + dt * static_cast<double>(counts.size()) << " s)\n"
            << Indent(depth + 1) << "fits = " << fits
            << " (last " << last_iters << " ADMM iterations), warm start = "
            << (warm.empty() ? "cold" : "carried") << '\n';
  return reader->ExitSection();
}

// Per-tenant freshness tail (fleet layer version >= 2 with freshness on).
Status PrintFreshness(Reader* reader, int depth) {
  RS_RETURN_NOT_OK(reader->EnterSection(rs::persist::kTagFreshness));
  RS_ASSIGN_OR_RETURN(const std::uint32_t version, reader->ReadU32());
  RS_ASSIGN_OR_RETURN(const double base, reader->ReadDouble());
  RS_ASSIGN_OR_RETURN(const double shift, reader->ReadDouble());
  RS_ASSIGN_OR_RETURN(const double last_attempt, reader->ReadDouble());
  RS_ASSIGN_OR_RETURN(const bool drift_counted, reader->ReadBool());
  RS_ASSIGN_OR_RETURN(const std::uint64_t drift_events, reader->ReadU64());
  RS_ASSIGN_OR_RETURN(const std::uint64_t retrains, reader->ReadU64());
  RS_ASSIGN_OR_RETURN(const std::uint64_t failures, reader->ReadU64());
  RS_ASSIGN_OR_RETURN(const std::uint64_t swaps, reader->ReadU64());
  RS_ASSIGN_OR_RETURN(const double last_swap, reader->ReadDouble());
  std::cout << Indent(depth) << "FRSH freshness state (version " << version
            << "): model origin = " << base << " s, trace shift = " << shift
            << " s\n"
            << Indent(depth + 1) << "drift events = " << drift_events
            << (drift_counted ? " (latched)" : "")
            << ", retrains = " << retrains << ", failures = " << failures
            << ", swaps = " << swaps << " (last at " << last_swap
            << " s, last attempt " << last_attempt << " s)\n";
  RS_RETURN_NOT_OK(PrintDetector(reader, depth + 1));
  RS_RETURN_NOT_OK(PrintTrainSession(reader, depth + 1));
  return reader->ExitSection();
}

// Per-tenant degradation health (fleet layer version >= 3): breaker state,
// failure counters, backoff clocks.
Status PrintHealth(Reader* reader, int depth) {
  RS_RETURN_NOT_OK(reader->EnterSection(rs::persist::kTagHealth));
  RS_ASSIGN_OR_RETURN(const std::uint32_t version, reader->ReadU32());
  RS_ASSIGN_OR_RETURN(const std::uint8_t state, reader->ReadU8());
  RS_ASSIGN_OR_RETURN(const std::uint64_t consecutive, reader->ReadU64());
  RS_ASSIGN_OR_RETURN(const std::uint64_t plan_failures, reader->ReadU64());
  RS_ASSIGN_OR_RETURN(const std::uint64_t fallbacks, reader->ReadU64());
  RS_ASSIGN_OR_RETURN(const std::uint64_t rejected, reader->ReadU64());
  RS_ASSIGN_OR_RETURN(const std::uint64_t opens, reader->ReadU64());
  RS_ASSIGN_OR_RETURN(const std::uint64_t probes, reader->ReadU64());
  RS_ASSIGN_OR_RETURN(const std::uint64_t overruns, reader->ReadU64());
  RS_ASSIGN_OR_RETURN(const std::uint64_t retrain_fails, reader->ReadU64());
  RS_ASSIGN_OR_RETURN(const std::uint64_t open_count, reader->ReadU64());
  RS_ASSIGN_OR_RETURN(const std::uint64_t freshness_errors, reader->ReadU64());
  RS_ASSIGN_OR_RETURN(const double retry_at, reader->ReadDouble());
  RS_ASSIGN_OR_RETURN(const double retrain_retry_at, reader->ReadDouble());
  RS_ASSIGN_OR_RETURN(const std::uint64_t jitter_rng, reader->ReadU64());
  static const char* const kNames[] = {"healthy", "degraded", "quarantined"};
  const char* health_name = state < 3 ? kNames[state] : "unknown";
  std::cout << Indent(depth) << "HLTH health (version " << version
            << "): " << health_name << '\n'
            << Indent(depth + 1) << "plan failures = " << plan_failures
            << " (" << consecutive << " consecutive), fallbacks served = "
            << fallbacks << ", rejected observations = " << rejected << '\n'
            << Indent(depth + 1) << "breaker: opens = " << opens
            << " (streak " << open_count << "), probes = " << probes
            << ", retry at " << retry_at << " s\n"
            << Indent(depth + 1) << "deadline overruns = " << overruns
            << ", retrain failure streak = " << retrain_fails
            << " (retry at " << retrain_retry_at << " s), freshness errors = "
            << freshness_errors << ", jitter rng = 0x" << std::hex
            << jitter_rng << std::dec << '\n';
  return reader->ExitSection();
}

Status PrintTenant(Reader* reader, int depth) {
  RS_RETURN_NOT_OK(reader->EnterSection(rs::persist::kTagTenant));
  RS_ASSIGN_OR_RETURN(const std::string name, reader->ReadString());
  std::cout << Indent(depth) << "TENT tenant \"" << name << "\":\n";
  RS_RETURN_NOT_OK(PrintScaler(reader, depth + 1));
  // Optional trailing sections, in fixed order: FRSH (freshness loop state,
  // layer v2+), then HLTH (degradation health, layer v3+).
  if (reader->remaining() > 0) {
    RS_ASSIGN_OR_RETURN(const std::uint32_t tag, reader->PeekSectionTag());
    if (tag == rs::persist::kTagFreshness) {
      RS_RETURN_NOT_OK(PrintFreshness(reader, depth + 1));
    }
  }
  if (reader->remaining() > 0) {
    RS_ASSIGN_OR_RETURN(const std::uint32_t tag, reader->PeekSectionTag());
    if (tag == rs::persist::kTagHealth) {
      RS_RETURN_NOT_OK(PrintHealth(reader, depth + 1));
    }
  }
  return reader->ExitSection();
}

// Fleet-wide freshness policy summary (layer version >= 2).
Status PrintPolicy(Reader* reader, int depth) {
  RS_RETURN_NOT_OK(reader->EnterSection(rs::persist::kTagFreshnessPolicy));
  RS_ASSIGN_OR_RETURN(const std::uint32_t version, reader->ReadU32());
  RS_ASSIGN_OR_RETURN(const double dt, reader->ReadDouble());
  RS_ASSIGN_OR_RETURN(const double beta1, reader->ReadDouble());
  RS_ASSIGN_OR_RETURN(const double beta2, reader->ReadDouble());
  RS_ASSIGN_OR_RETURN(const double horizon, reader->ReadDouble());
  RS_ASSIGN_OR_RETURN(const double rho, reader->ReadDouble());
  RS_ASSIGN_OR_RETURN(const std::uint64_t max_iterations, reader->ReadU64());
  // v2+: ε_abs/ε_rel of the scaled stopping rule. v1: raw residual-norm
  // bounds, which the fleet replaces with the default ε_abs/ε_rel on load.
  RS_ASSIGN_OR_RETURN(const double tolerance_a, reader->ReadDouble());
  RS_ASSIGN_OR_RETURN(const double tolerance_b, reader->ReadDouble());
  RS_ASSIGN_OR_RETURN(const double r_clamp, reader->ReadDouble());
  RS_ASSIGN_OR_RETURN(const std::uint64_t aggregate, reader->ReadU64());
  RS_ASSIGN_OR_RETURN(const std::uint64_t warmup, reader->ReadU64());
  RS_ASSIGN_OR_RETURN(const double min_rate, reader->ReadDouble());
  RS_ASSIGN_OR_RETURN(const double delta, reader->ReadDouble());
  RS_ASSIGN_OR_RETURN(const double threshold, reader->ReadDouble());
  RS_ASSIGN_OR_RETURN(const double min_corr, reader->ReadDouble());
  RS_ASSIGN_OR_RETURN(const double profile_threshold, reader->ReadDouble());
  RS_ASSIGN_OR_RETURN(const bool check_period, reader->ReadBool());
  RS_ASSIGN_OR_RETURN(const double min_interval, reader->ReadDouble());
  RS_ASSIGN_OR_RETURN(const std::uint64_t workers, reader->ReadU64());
  std::cout << Indent(depth) << "FPOL freshness policy (version " << version
            << "): retrain dt = " << dt << " s, horizon = " << horizon
            << " s, beta = (" << beta1 << ", " << beta2 << ")\n"
            << Indent(depth + 1) << "admm: rho0 = " << rho
            << ", max_iterations = " << max_iterations;
  if (version >= 2) {
    std::cout << ", eps_abs = " << tolerance_a << ", eps_rel = " << tolerance_b;
  } else {
    std::cout << ", raw residual bounds (" << tolerance_a << ", "
              << tolerance_b << ") load as the default eps_abs/eps_rel";
  }
  std::cout << ", r_clamp = " << r_clamp
            << ", periodicity aggregate = " << aggregate << '\n'
            << Indent(depth + 1) << "detector: warmup = " << warmup
            << " bins, min_rate = " << min_rate << ", delta = " << delta
            << ", threshold = " << threshold << ", profile = ("
            << min_corr << ", " << profile_threshold << ", "
            << (check_period ? "on" : "off") << ")\n"
            << Indent(depth + 1) << "min retrain interval = " << min_interval
            << " s, retrain workers = " << workers << '\n';
  return reader->ExitSection();
}

Status PrintFleet(Reader* reader, int depth) {
  RS_RETURN_NOT_OK(reader->EnterSection(rs::persist::kTagFleet));
  RS_ASSIGN_OR_RETURN(const std::uint32_t layer_version, reader->ReadU32());
  bool has_policy = false;
  if (layer_version >= 2) {
    RS_ASSIGN_OR_RETURN(has_policy, reader->ReadBool());
  }
  std::cout << Indent(depth) << "FLET fleet record (layer version "
            << layer_version << "), freshness "
            << (has_policy ? "on" : "off") << ":\n";
  if (has_policy) RS_RETURN_NOT_OK(PrintPolicy(reader, depth + 1));
  RS_ASSIGN_OR_RETURN(const std::uint64_t count, reader->ReadU64());
  std::cout << Indent(depth + 1) << count << " tenant(s):\n";
  for (std::uint64_t i = 0; i < count; ++i) {
    RS_RETURN_NOT_OK(PrintTenant(reader, depth + 1));
  }
  return reader->ExitSection();
}

// rs::trace serving capture: metadata, event histogram, and the first few
// events in decoded form (the full event grammar lives in
// docs/TRACE_FORMAT.md; rs_trace info/replay operate on the decoded form).
Status PrintTraceCapture(Reader* reader, int depth) {
  RS_RETURN_NOT_OK(reader->EnterSection(rs::persist::kTagTraceCapture));
  RS_ASSIGN_OR_RETURN(const std::uint32_t version, reader->ReadU32());
  std::cout << Indent(depth) << "TRCE serving capture (trace layer version "
            << version << "):\n";

  RS_RETURN_NOT_OK(reader->EnterSection(rs::persist::kTagTraceMeta));
  RS_ASSIGN_OR_RETURN(const std::string producer, reader->ReadString());
  RS_ASSIGN_OR_RETURN(const std::string label, reader->ReadString());
  std::cout << Indent(depth + 1) << "TMET producer \"" << producer
            << "\", label \"" << label << "\"\n";
  RS_RETURN_NOT_OK(reader->ExitSection());

  RS_RETURN_NOT_OK(reader->EnterSection(rs::persist::kTagTraceEvents));
  RS_ASSIGN_OR_RETURN(const std::uint64_t count, reader->ReadU64());
  std::cout << Indent(depth + 1) << "TEVT " << count << " event(s):\n";
  constexpr std::uint64_t kShown = 8;
  std::uint64_t histogram[7] = {0, 0, 0, 0, 0, 0, 0};
  static const char* const kKindNames[7] = {
      "?", "register", "retire", "replace-model", "observe", "plan",
      "plan-all"};
  const auto read_clock = [reader](bool* has, double* time,
                                   std::uint64_t* readings) -> Status {
    RS_ASSIGN_OR_RETURN(*has, reader->ReadBool());
    RS_ASSIGN_OR_RETURN(*time, reader->ReadDouble());
    RS_ASSIGN_OR_RETURN(*readings, reader->ReadU64());
    return Status::OK();
  };
  const auto read_action = [reader](std::uint64_t* creations,
                                    std::uint64_t* deletions) -> Status {
    std::vector<double> times;
    RS_RETURN_NOT_OK(reader->ReadDoubleVector(&times));
    *creations = times.size();
    RS_ASSIGN_OR_RETURN(*deletions, reader->ReadU64());
    return Status::OK();
  };
  for (std::uint64_t i = 0; i < count; ++i) {
    RS_ASSIGN_OR_RETURN(const std::uint8_t kind, reader->ReadU8());
    if (kind < 1 || kind > 6) {
      return Status::Invalid("unknown trace event kind " +
                             std::to_string(kind));
    }
    histogram[kind]++;
    const bool show = i < kShown;
    if (show) {
      std::cout << Indent(depth + 2) << '#' << i << ' ' << kKindNames[kind];
    }
    switch (kind) {
      case 1: {  // register
        RS_ASSIGN_OR_RETURN(const std::uint32_t id, reader->ReadU32());
        RS_ASSIGN_OR_RETURN(const std::string name, reader->ReadString());
        RS_ASSIGN_OR_RETURN(const std::string state, reader->ReadString());
        if (show) {
          std::cout << " \"" << name << "\" -> id " << id << " ("
                    << state.size() << "-byte scaler snapshot)";
        }
        break;
      }
      case 2: {  // retire
        RS_ASSIGN_OR_RETURN(const std::uint32_t id, reader->ReadU32());
        if (show) std::cout << " id " << id;
        break;
      }
      case 3: {  // replace-model
        RS_ASSIGN_OR_RETURN(const std::uint32_t id, reader->ReadU32());
        RS_ASSIGN_OR_RETURN(const bool at_next_plan, reader->ReadBool());
        RS_ASSIGN_OR_RETURN(const std::string state, reader->ReadString());
        if (show) {
          std::cout << " id " << id
                    << (at_next_plan ? " at next plan" : " immediate") << " ("
                    << state.size() << "-byte scaler snapshot)";
        }
        break;
      }
      case 4: {  // observe
        RS_ASSIGN_OR_RETURN(const std::uint32_t id, reader->ReadU32());
        RS_ASSIGN_OR_RETURN(const double time, reader->ReadDouble());
        RS_ASSIGN_OR_RETURN(const std::uint8_t outcome, reader->ReadU8());
        if (show) {
          std::cout << " id " << id << " t=" << time
                    << ((outcome & 1u) ? " cold-start" : "")
                    << ((outcome & 2u) ? " cancel-earliest" : "");
        }
        break;
      }
      case 5: {  // plan
        RS_ASSIGN_OR_RETURN(const std::uint32_t id, reader->ReadU32());
        RS_ASSIGN_OR_RETURN(const double time, reader->ReadDouble());
        bool has = false;
        double clock_time = 0.0;
        std::uint64_t readings = 0;
        RS_RETURN_NOT_OK(read_clock(&has, &clock_time, &readings));
        std::uint64_t creations = 0, deletions = 0;
        RS_RETURN_NOT_OK(read_action(&creations, &deletions));
        if (show) {
          std::cout << " id " << id << " t=" << time << " -> " << creations
                    << " creation(s), " << deletions << " deletion(s)";
          if (has) std::cout << " [clock " << clock_time << "/" << readings
                             << ']';
        }
        break;
      }
      case 6: {  // plan-all
        RS_ASSIGN_OR_RETURN(const double time, reader->ReadDouble());
        RS_ASSIGN_OR_RETURN(const std::uint64_t tenants, reader->ReadU64());
        std::uint64_t creations_total = 0, failures = 0;
        for (std::uint64_t j = 0; j < tenants; ++j) {
          RS_RETURN_NOT_OK(reader->ReadU32().status());
          RS_ASSIGN_OR_RETURN(const bool ok, reader->ReadBool());
          bool has = false;
          double clock_time = 0.0;
          std::uint64_t readings = 0;
          RS_RETURN_NOT_OK(read_clock(&has, &clock_time, &readings));
          if (ok) {
            std::uint64_t creations = 0, deletions = 0;
            RS_RETURN_NOT_OK(read_action(&creations, &deletions));
            creations_total += creations;
          } else {
            failures++;
          }
        }
        if (show) {
          std::cout << " t=" << time << " over " << tenants << " tenant(s): "
                    << creations_total << " creation(s)";
          if (failures > 0) std::cout << ", " << failures << " failed";
        }
        break;
      }
    }
    if (show) std::cout << '\n';
  }
  if (count > kShown) {
    std::cout << Indent(depth + 2) << "... " << count - kShown << " more\n";
  }
  std::cout << Indent(depth + 1) << "histogram:";
  for (int kind = 1; kind <= 6; ++kind) {
    if (histogram[kind] == 0) continue;
    std::cout << ' ' << kKindNames[kind] << '=' << histogram[kind];
  }
  std::cout << '\n';
  RS_RETURN_NOT_OK(reader->ExitSection());
  return reader->ExitSection();
}

// Journal checkpoint (rs::wal): the WCKP metadata — checkpoint LSN, the
// tenant-id intern table — then the embedded fleet snapshot.
Status PrintWalCheckpoint(Reader* reader, int depth) {
  RS_RETURN_NOT_OK(reader->EnterSection(rs::persist::kTagWalCheckpoint));
  RS_ASSIGN_OR_RETURN(const std::uint32_t version, reader->ReadU32());
  RS_ASSIGN_OR_RETURN(const std::uint64_t lsn, reader->ReadU64());
  RS_ASSIGN_OR_RETURN(const std::uint64_t next_id, reader->ReadU64());
  RS_ASSIGN_OR_RETURN(const std::uint64_t count, reader->ReadU64());
  std::cout << Indent(depth) << "WCKP journal checkpoint v" << version
            << " @ LSN " << lsn << ", " << count
            << " interned tenant(s), next id " << next_id << '\n';
  for (std::uint64_t i = 0; i < count; ++i) {
    RS_ASSIGN_OR_RETURN(const std::uint32_t id, reader->ReadU32());
    RS_ASSIGN_OR_RETURN(const std::string name, reader->ReadString());
    RS_ASSIGN_OR_RETURN(const bool live, reader->ReadBool());
    std::cout << Indent(depth + 1) << "id " << id << " -> " << name
              << (live ? "" : " (retired)") << '\n';
  }
  RS_ASSIGN_OR_RETURN(const std::string user_meta, reader->ReadString());
  if (!user_meta.empty()) {
    std::cout << Indent(depth + 1) << "meta: " << user_meta << '\n';
  }
  RS_RETURN_NOT_OK(PrintFleet(reader, depth + 1));
  return reader->ExitSection();
}

Status Inspect(Reader* reader) {
  std::cout << "format version " << reader->version() << ", payload "
            << reader->remaining() << " bytes\n";
  while (reader->remaining() > 0) {
    RS_ASSIGN_OR_RETURN(const std::uint32_t tag, reader->PeekSectionTag());
    if (tag == rs::persist::kTagFleet) {
      RS_RETURN_NOT_OK(PrintFleet(reader, 0));
    } else if (tag == rs::persist::kTagTenant) {
      RS_RETURN_NOT_OK(PrintTenant(reader, 0));
    } else if (tag == rs::persist::kTagScaler) {
      RS_RETURN_NOT_OK(PrintScaler(reader, 0));
    } else if (tag == rs::persist::kTagTraceCapture) {
      RS_RETURN_NOT_OK(PrintTraceCapture(reader, 0));
    } else if (tag == rs::persist::kTagWalCheckpoint) {
      RS_RETURN_NOT_OK(PrintWalCheckpoint(reader, 0));
    } else {
      std::cout << "(skipping unknown section "
                << rs::persist::TagToString(tag) << ")\n";
      RS_RETURN_NOT_OK(reader->SkipSection());
    }
  }
  return Status::OK();
}

}  // namespace

// Swallows the tree print in --verify mode: the full Inspect walk still
// runs (exercising every section bound on top of the codec's CRC check),
// but nothing reaches the terminal except the verdict line.
class NullBuf : public std::streambuf {
 protected:
  int overflow(int c) override { return c; }
};

int main(int argc, char** argv) {
  bool verify = false;
  const char* path = nullptr;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--verify") {
      verify = true;
    } else if (!path) {
      path = argv[i];
    } else {
      path = nullptr;
      break;
    }
  }
  if (!path) {
    std::cerr << "usage: rs_snapshot [--verify] <snapshot-file>\n";
    return 2;
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::cerr << "rs_snapshot: cannot open " << path << '\n';
    return 1;
  }
  // Journal segments (rs::wal, magic "RSWJ") are not persist containers;
  // route them to the segment walker: header magic/version, per-record CRC
  // + length framing, LSN contiguity. A torn tail and zero padding are
  // reported (legal — a crash mid-append leaves them; recovery truncates
  // the tail); corruption before the tail fails.
  char magic[4] = {};
  in.read(magic, 4);
  if (in.gcount() == 4 && std::string(magic, 4) == "RSWJ") {
    auto report = rs::wal::InspectSegmentFile(path);
    if (!report.ok()) {
      std::cerr << "rs_snapshot: " << report.status().message() << '\n';
      return 1;
    }
    std::cout << path << ": journal segment (layout v" << report->version
              << "), " << report->records << " record(s)";
    if (report->records > 0) {
      std::cout << ", LSN " << report->first_lsn << ".." << report->last_lsn;
    } else {
      std::cout << " (first LSN " << report->first_lsn << ")";
    }
    std::cout << ", " << report->bytes << " bytes";
    if (report->torn_tail_bytes > 0) {
      std::cout << ", torn tail " << report->torn_tail_bytes
                << " byte(s) (recovery truncates it)";
    }
    if (report->padding_bytes > 0) {
      std::cout << ", zero padding " << report->padding_bytes
                << " byte(s) (left by a killed writer)";
    }
    std::cout << (verify ? " — OK (CRC and framing verified)" : "") << '\n';
    return 0;
  }
  in.clear();
  in.seekg(0);
  auto reader = Reader::FromStream(in);
  if (!reader.ok()) {
    std::cerr << "rs_snapshot: " << reader.status().message() << '\n';
    return 1;
  }
  const std::size_t payload = reader.ValueOrDie().remaining();
  NullBuf null_buf;
  std::streambuf* saved = verify ? std::cout.rdbuf(&null_buf) : nullptr;
  const Status st = Inspect(&reader.ValueOrDie());
  if (saved) std::cout.rdbuf(saved);
  if (!st.ok()) {
    std::cerr << "rs_snapshot: " << st.message() << '\n';
    return 1;
  }
  if (verify) {
    std::cout << path << ": OK (" << payload << " payload bytes, CRC and "
              << "section bounds verified)\n";
  }
  return 0;
}
