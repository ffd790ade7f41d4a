// Tests of the rs::persist snapshot subsystem and its Scaler/ScalerFleet
// integration:
//  * codec round-trips (every field type, nested sections, forward skip);
//  * the format-version handshake (future versions rejected, never a crash);
//  * corruption robustness: truncations, bit flips, wrong magic and crafted
//    section-length overflows all surface as a clean Status — this file
//    runs in the existing ASan/UBSan CI jobs, which is the real assertion;
//  * the headline continuation guarantee: for every registry strategy and
//    snapshot points from pre-start through the last step, a restored
//    Scaler's action sequence is byte-identical to an uninterrupted one,
//    under 0/1/8 planning-pool workers;
//  * fleet durability: SaveFleet/LoadFleet, tenant snapshot/restore, and
//    live MigrateTenant between two serving fleets mid-stream.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "rs/api/api.hpp"
#include "rs/persist/fields.hpp"
#include "rs/persist/persist.hpp"
#include "rs/simulator/decision_clock.hpp"
#include "rs/stats/rng.hpp"

namespace rs::api {
namespace {

// ---------------------------------------------------------------------------
// Codec layer
// ---------------------------------------------------------------------------

TEST(PersistCodecTest, RoundTripsEveryFieldType) {
  persist::Writer writer;
  writer.BeginSection(persist::kTagScaler);
  writer.WriteU8(0xAB);
  writer.WriteBool(true);
  writer.WriteBool(false);
  writer.WriteU32(0xDEADBEEFu);
  writer.WriteU64(0x0123456789ABCDEFull);
  writer.WriteDouble(-1.5e-300);
  writer.WriteDouble(std::numeric_limits<double>::infinity());
  writer.WriteString("tenant \"x\" \x01\xff");
  writer.WriteDoubleVector({0.0, -0.0, 3.14159});
  writer.WriteU64Vector({1, 2, 3});
  writer.EndSection();
  std::stringstream out;
  ASSERT_TRUE(writer.Finish(out).ok());

  auto reader = persist::Reader::FromStream(out);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  ASSERT_EQ(reader->version(), persist::kFormatVersion);
  ASSERT_TRUE(reader->EnterSection(persist::kTagScaler).ok());
  EXPECT_EQ(*reader->ReadU8(), 0xAB);
  EXPECT_EQ(*reader->ReadBool(), true);
  EXPECT_EQ(*reader->ReadBool(), false);
  EXPECT_EQ(*reader->ReadU32(), 0xDEADBEEFu);
  EXPECT_EQ(*reader->ReadU64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(*reader->ReadDouble(), -1.5e-300);
  EXPECT_EQ(*reader->ReadDouble(), std::numeric_limits<double>::infinity());
  EXPECT_EQ(*reader->ReadString(), "tenant \"x\" \x01\xff");
  std::vector<double> doubles;
  ASSERT_TRUE(reader->ReadDoubleVector(&doubles).ok());
  ASSERT_EQ(doubles.size(), 3u);
  EXPECT_EQ(doubles[0], 0.0);
  EXPECT_TRUE(std::signbit(doubles[1]));
  EXPECT_EQ(doubles[2], 3.14159);
  std::vector<std::uint64_t> words;
  ASSERT_TRUE(reader->ReadU64Vector(&words).ok());
  EXPECT_EQ(words, (std::vector<std::uint64_t>{1, 2, 3}));
  ASSERT_TRUE(reader->ExitSection().ok());
  EXPECT_EQ(reader->remaining(), 0u);
}

TEST(PersistCodecTest, ExitSectionSkipsUnreadTailForForwardCompat) {
  // A "newer writer" appends fields this reader does not know about; the
  // reader consumes its prefix, exits, and lands exactly on the next
  // section.
  persist::Writer writer;
  writer.BeginSection(persist::kTagSpec);
  writer.WriteU32(7);
  writer.WriteDouble(1.0);   // "New" trailing fields.
  writer.WriteString("future");
  writer.EndSection();
  writer.BeginSection(persist::kTagMirror);
  writer.WriteU32(9);
  writer.EndSection();
  std::stringstream out;
  ASSERT_TRUE(writer.Finish(out).ok());

  auto reader = persist::Reader::FromStream(out);
  ASSERT_TRUE(reader.ok());
  ASSERT_TRUE(reader->EnterSection(persist::kTagSpec).ok());
  EXPECT_EQ(*reader->ReadU32(), 7u);
  ASSERT_TRUE(reader->ExitSection().ok());  // Skips the two unread fields.
  ASSERT_TRUE(reader->EnterSection(persist::kTagMirror).ok());
  EXPECT_EQ(*reader->ReadU32(), 9u);
  ASSERT_TRUE(reader->ExitSection().ok());
}

TEST(PersistCodecTest, RngStateRoundTripContinuesBitForBit) {
  stats::Rng rng(123);
  (void)rng.NextGaussian();  // Populate the Box–Muller cache (odd draw count).
  persist::Writer writer;
  persist::Put(&writer, rng);
  std::stringstream out;
  ASSERT_TRUE(writer.Finish(out).ok());

  auto reader = persist::Reader::FromStream(out);
  ASSERT_TRUE(reader.ok());
  stats::Rng restored(0);
  Status read;
  persist::Get(&reader.ValueOrDie(), &restored, &read);
  ASSERT_TRUE(read.ok()) << read.ToString();
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.NextGaussian(), restored.NextGaussian()) << "draw " << i;
    EXPECT_EQ(rng.NextUint64(), restored.NextUint64()) << "draw " << i;
  }
}

/// Bitwise CRC-32 (IEEE reflected): the reference both kernels must match
/// byte for byte.
std::uint32_t ReferenceCrc32(const unsigned char* data, std::size_t n,
                             std::uint32_t seed) {
  std::uint32_t crc = ~seed;
  for (std::size_t i = 0; i < n; ++i) {
    crc ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0xEDB88320u : 0u);
    }
  }
  return ~crc;
}

/// Crc32 over pieces of at most 63 bytes, chained: each call is below the
/// 64-byte fold threshold, so this is the table kernel alone on any CPU.
std::uint32_t TableKernelCrc32(const unsigned char* data, std::size_t n,
                               std::uint32_t seed) {
  std::uint32_t crc = seed;
  for (std::size_t at = 0; at < n; at += 63) {
    crc = persist::Crc32(data + at, std::min<std::size_t>(63, n - at), crc);
  }
  return crc;
}

TEST(PersistCrcTest, TableAndFoldedKernelsMatchTheBitwiseReference) {
  EXPECT_EQ(persist::Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(persist::Crc32(nullptr, 0), 0u);

  stats::Rng rng(20220414);
  std::vector<unsigned char> buffer((64u << 10) + 16);
  for (unsigned char& byte : buffer) {
    byte = static_cast<unsigned char>(rng.NextBounded(256));
  }
  // One-shot Crc32 folds inputs of 64 bytes or more when the CPU can;
  // TableKernelCrc32 never does. Both must equal the reference.
  const auto check = [&](std::size_t len, std::uint32_t seed,
                         std::size_t align) {
    const unsigned char* data = buffer.data() + align;
    const std::uint32_t want = ReferenceCrc32(data, len, seed);
    EXPECT_EQ(persist::Crc32(data, len, seed), want)
        << "length " << len << ", alignment " << align;
    EXPECT_EQ(TableKernelCrc32(data, len, seed), want)
        << "table kernel, length " << len << ", alignment " << align;
  };
  // Every length 0-200 at all 16 alignments: below the threshold, at it,
  // and past it with every 0-15 byte tail after the folded blocks.
  for (std::size_t len = 0; len <= 200; ++len) {
    const auto seed = static_cast<std::uint32_t>(rng.NextUint64());
    for (std::size_t align = 0; align < 16; ++align) check(len, seed, align);
  }
  // Random lengths up to 64 KiB, random alignments and seeds.
  for (int trial = 0; trial < 64; ++trial) {
    check(rng.NextBounded((64u << 10) + 1),
          static_cast<std::uint32_t>(rng.NextUint64()), rng.NextBounded(16));
  }
  // Chaining: a CRC split at any point equals the one-shot CRC, also when
  // one side of the cut is folded and the other is not.
  const auto check_cut = [&](std::size_t len, std::size_t cut) {
    const std::uint32_t head = persist::Crc32(buffer.data(), cut);
    EXPECT_EQ(persist::Crc32(buffer.data() + cut, len - cut, head),
              ReferenceCrc32(buffer.data(), len, 0))
        << "length " << len << " chained at " << cut;
  };
  for (const std::size_t len : {64u, 79u, 127u, 128u, 200u, 4096u}) {
    for (const std::size_t cut :
         {std::size_t{0}, std::size_t{1}, std::size_t{15}, std::size_t{16},
          std::size_t{63}, std::size_t{64}, std::size_t{65}, len - 65,
          len - 64, len - 63, len - 1, len}) {
      if (cut <= len) check_cut(len, cut);
    }
  }
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t len = rng.NextBounded(4097);
    check_cut(len, rng.NextBounded(len + 1));
  }
}

TEST(PersistCodecTest, DurationDistributionRawParamsRoundTrip) {
  // LogNormal's public factory converts mean/cv to (mu, sigma); the raw
  // accessors must round-trip the internal parameters bit-exactly.
  const auto original = stats::DurationDistribution::LogNormal(20.0, 1.7);
  auto restored = stats::DurationDistribution::FromRawParams(
      static_cast<std::uint8_t>(original.kind()), original.param1(),
      original.param2());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->param1(), original.param1());
  EXPECT_EQ(restored->param2(), original.param2());
  stats::Rng a(5), b(5);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(original.Sample(&a), restored->Sample(&b));
  }
  // Out-of-domain kinds and parameters fail cleanly.
  EXPECT_FALSE(stats::DurationDistribution::FromRawParams(250, 1.0, 1.0).ok());
  EXPECT_FALSE(stats::DurationDistribution::FromRawParams(
                   static_cast<std::uint8_t>(
                       stats::DurationDistribution::Kind::kExponential),
                   -1.0, 0.0)
                   .ok());
}

// ---------------------------------------------------------------------------
// Version handshake & corruption robustness
// ---------------------------------------------------------------------------

std::string MakeValidSnapshotBytes() {
  persist::Writer writer;
  writer.BeginSection(persist::kTagScaler);
  writer.WriteU32(1);
  writer.BeginSection(persist::kTagSpec);
  writer.WriteString("robust_hp");
  writer.WriteDoubleVector({1.0, 2.0, 3.0, 4.0});
  writer.EndSection();
  writer.WriteU64(42);
  writer.EndSection();
  std::stringstream out;
  EXPECT_TRUE(writer.Finish(out).ok());
  return out.str();
}

// Rewrites bytes [4,8) (the format version) and fixes up the CRC trailer so
// only the version check can reject the result.
std::string WithFormatVersion(std::string bytes, std::uint32_t version) {
  for (int i = 0; i < 4; ++i) {
    bytes[4 + i] = static_cast<char>((version >> (8 * i)) & 0xFF);
  }
  const std::uint32_t crc =
      persist::Crc32(bytes.data(), bytes.size() - 4);
  for (int i = 0; i < 4; ++i) {
    bytes[bytes.size() - 4 + i] = static_cast<char>((crc >> (8 * i)) & 0xFF);
  }
  return bytes;
}

TEST(PersistVersionTest, RejectsFutureFormatVersionsDescriptively) {
  const std::string bytes = MakeValidSnapshotBytes();
  auto future = persist::Reader::FromBytes(
      WithFormatVersion(bytes, persist::kFormatVersion + 5));
  ASSERT_FALSE(future.ok());
  EXPECT_NE(future.status().message().find("version"), std::string::npos)
      << future.status().ToString();
  auto zero = persist::Reader::FromBytes(WithFormatVersion(bytes, 0));
  EXPECT_FALSE(zero.ok());
  // The unmodified snapshot still loads (the fixture is really valid).
  EXPECT_TRUE(persist::Reader::FromBytes(bytes).ok());
}

TEST(PersistVersionTest, LayerVersionZeroIsCorruptAndHigherIsNewer) {
  // Every section reader shares one check: version 0 is never written, so
  // it reports corruption; a higher version reports a newer writer.
  const auto restore_with_version = [](std::uint32_t version) {
    persist::Writer writer;
    writer.BeginSection(persist::kTagScaler);
    writer.WriteU32(version);
    writer.EndSection();
    std::stringstream buffer;
    EXPECT_TRUE(writer.Finish(buffer).ok());
    auto reader = persist::Reader::FromStream(buffer);
    EXPECT_TRUE(reader.ok()) << reader.status().ToString();
    return api::ScalerBuilder::RestoreStateSection(&*reader, {}).status();
  };
  const Status zero = restore_with_version(0);
  EXPECT_EQ(zero.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(zero.message(),
            "Scaler snapshot record version 0 is never written; the data is "
            "corrupt");
  const Status newer = restore_with_version(1000);
  EXPECT_EQ(newer.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(newer.message().find("Scaler snapshot record version 1000 is "
                                 "newer than this build understands"),
            std::string::npos)
      << newer.ToString();
}

TEST(PersistCorruptionTest, EveryTruncationFailsCleanly) {
  const std::string bytes = MakeValidSnapshotBytes();
  for (std::size_t n = 0; n < bytes.size(); ++n) {
    auto reader = persist::Reader::FromBytes(bytes.substr(0, n));
    EXPECT_FALSE(reader.ok()) << "truncation to " << n << " bytes";
  }
}

TEST(PersistCorruptionTest, ZeroByteSnapshotFailsWithItsOwnMessage) {
  // `touch`, a crash before any write, or a truncated-to-nothing file: its
  // own failure mode, named as such — not the generic truncation message.
  auto reader = persist::Reader::FromBytes("");
  ASSERT_FALSE(reader.ok());
  EXPECT_NE(reader.status().message().find("empty (0 bytes)"),
            std::string::npos)
      << reader.status().ToString();
}

TEST(PersistCorruptionTest, SubHeaderSizedSnapshotsFailDescriptively) {
  // Every length smaller than header + CRC trailer (1..11 bytes) must fail
  // before any field decode — there is nothing to bounds-check against yet.
  const std::string bytes = MakeValidSnapshotBytes();
  for (std::size_t n = 1; n < 12; ++n) {
    auto reader = persist::Reader::FromBytes(bytes.substr(0, n));
    ASSERT_FALSE(reader.ok()) << n << " bytes";
    EXPECT_NE(reader.status().message().find("truncated"), std::string::npos)
        << n << " bytes: " << reader.status().ToString();
  }
}

TEST(PersistCorruptionTest, EverySingleBitFlipFailsCleanly) {
  // The CRC trailer catches any single-bit flip anywhere in the container
  // (including inside the trailer itself).
  const std::string bytes = MakeValidSnapshotBytes();
  for (std::size_t byte = 0; byte < bytes.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string corrupt = bytes;
      corrupt[byte] = static_cast<char>(corrupt[byte] ^ (1 << bit));
      auto reader = persist::Reader::FromBytes(corrupt);
      EXPECT_FALSE(reader.ok()) << "bit " << bit << " of byte " << byte;
    }
  }
}

TEST(PersistCorruptionTest, WrongMagicFailsWithMessage) {
  std::string bytes = MakeValidSnapshotBytes();
  bytes[0] = 'X';
  auto reader = persist::Reader::FromBytes(bytes);
  ASSERT_FALSE(reader.ok());
  // (The CRC also breaks, but the magic check fires first and names the
  // real problem.)
  EXPECT_NE(reader.status().message().find("magic"), std::string::npos)
      << reader.status().ToString();
}

TEST(PersistCorruptionTest, SectionLengthOverflowFailsCleanly) {
  // Craft a section whose declared length runs past the payload, with a
  // *valid* CRC, so only the bounds check can catch it.
  std::string bytes = MakeValidSnapshotBytes();
  const std::size_t length_offset = 8 + 4;  // Header, then first tag.
  std::uint64_t huge = 0xFFFFFFFFFFFFull;
  for (int i = 0; i < 8; ++i) {
    bytes[length_offset + i] = static_cast<char>((huge >> (8 * i)) & 0xFF);
  }
  const std::uint32_t crc = persist::Crc32(bytes.data(), bytes.size() - 4);
  for (int i = 0; i < 4; ++i) {
    bytes[bytes.size() - 4 + i] = static_cast<char>((crc >> (8 * i)) & 0xFF);
  }
  auto reader = persist::Reader::FromBytes(bytes);
  ASSERT_TRUE(reader.ok());  // Container-level checks pass by construction.
  EXPECT_FALSE(reader->EnterSection(persist::kTagScaler).ok());
}

TEST(PersistCorruptionTest, RestoreOfFuzzedScalerSnapshotsNeverCrashes) {
  // End-to-end: corrupt a *real* Scaler snapshot many ways and push every
  // variant through the full restore path. Any outcome but a clean Status
  // (crash, sanitizer report) fails the ASan/UBSan CI jobs this runs under.
  const double dt = 30.0;
  std::vector<double> rates(40, 0.4);
  auto intensity = *workload::PiecewiseConstantIntensity::Make(rates, dt);
  stats::Rng rng(3);
  auto trace = *workload::MakeTraceFromIntensity(
      &rng, intensity, stats::DurationDistribution::Exponential(15.0));
  auto [train, test] = trace.SplitAt(0.75 * trace.horizon());
  auto scaler = ScalerBuilder()
                    .WithTrace(train)
                    .WithBinWidth(dt)
                    .WithForecastHorizon(test.horizon())
                    .WithTarget(HitRate{0.9})
                    .WithMcSamples(20)
                    .Build();
  ASSERT_TRUE(scaler.ok()) << scaler.status().ToString();
  for (double t = 1.0; t < 40.0; t += 2.0) (void)*scaler->Plan(t);
  std::stringstream snapshot;
  ASSERT_TRUE(scaler->SaveState(snapshot).ok());
  const std::string bytes = snapshot.str();

  auto expect_clean_failure = [](std::string corrupt, const char* what) {
    std::stringstream in(std::move(corrupt));
    auto restored = ScalerBuilder::RestoreState(in);
    EXPECT_FALSE(restored.ok()) << what;
  };
  // Truncations (every 7th length keeps the loop fast; ASan checks each).
  for (std::size_t n = 0; n < bytes.size(); n += 7) {
    expect_clean_failure(bytes.substr(0, n), "truncation");
  }
  // Deterministically-seeded random byte corruption.
  stats::Rng fuzz(99);
  for (int round = 0; round < 200; ++round) {
    std::string corrupt = bytes;
    const std::size_t at = fuzz.NextUint64() % corrupt.size();
    corrupt[at] = static_cast<char>(fuzz.NextUint64() & 0xFF);
    if (corrupt == bytes) continue;
    expect_clean_failure(std::move(corrupt), "byte corruption");
  }
}

// ---------------------------------------------------------------------------
// Continuation parity: Scaler
// ---------------------------------------------------------------------------

struct Workload {
  workload::Trace train;
  workload::Trace test;
  double dt = 30.0;
};

Workload MakePersistWorkload(std::uint64_t seed) {
  const double period_s = 600.0, dt = 30.0;
  const double horizon = 8.0 * period_s;
  std::vector<double> rates;
  for (double t = 0.5 * dt; t < horizon; t += dt) {
    const double phase = std::fmod(t, period_s) / period_s;
    rates.push_back(0.3 + 0.2 * std::sin(2.0 * M_PI * phase));
  }
  auto intensity = *workload::PiecewiseConstantIntensity::Make(rates, dt);
  stats::Rng rng(seed);
  auto trace = *workload::MakeTraceFromIntensity(
      &rng, intensity, stats::DurationDistribution::Exponential(15.0));
  Workload w;
  auto [train, test] = trace.SplitAt(horizon - 2.0 * period_s);
  w.train = std::move(train);
  w.test = std::move(test);
  return w;
}

Scaler BuildScaler(const Workload& w, const char* spec_string) {
  auto spec = ParseStrategySpec(spec_string);
  EXPECT_TRUE(spec.ok()) << spec.status().ToString();
  auto scaler = ScalerBuilder()
                    .WithTrace(w.train)
                    .WithBinWidth(w.dt)
                    .WithForecastHorizon(w.test.horizon())
                    .WithStrategy(*spec)
                    .WithPlanningInterval(2.0)
                    .WithMcSamples(40)
                    .Build();
  EXPECT_TRUE(scaler.ok()) << scaler.status().ToString();
  return std::move(scaler).ValueOrDie();
}

// The serving script: arrivals merged with Plan polls every 2 s (poll first
// on ties, matching the engine's tick-before-arrival order), one final poll
// past the horizon.
struct Step {
  bool is_plan = false;
  double time = 0.0;
};

std::vector<Step> MakeScript(const workload::Trace& test) {
  std::vector<Step> script;
  double next_plan = 2.0;
  for (const double arrival : test.ArrivalTimes()) {
    while (next_plan <= arrival) {
      script.push_back({true, next_plan});
      next_plan += 2.0;
    }
    script.push_back({false, arrival});
  }
  script.push_back({true, next_plan});
  return script;
}

// One serving outcome stream: drained actions plus observe flags, flattened
// for exact comparison.
struct Outcomes {
  std::vector<sim::ScalingAction> actions;
  std::vector<std::uint8_t> observe_flags;

  bool operator==(const Outcomes& other) const {
    if (observe_flags != other.observe_flags) return false;
    if (actions.size() != other.actions.size()) return false;
    for (std::size_t i = 0; i < actions.size(); ++i) {
      if (actions[i].deletions != other.actions[i].deletions) return false;
      if (actions[i].creation_times != other.actions[i].creation_times) {
        return false;
      }
    }
    return true;
  }
};

void RunSteps(Scaler* scaler, const std::vector<Step>& script,
              std::size_t from, std::size_t to, Outcomes* out) {
  for (std::size_t i = from; i < to; ++i) {
    if (script[i].is_plan) {
      auto action = scaler->Plan(script[i].time);
      ASSERT_TRUE(action.ok()) << action.status().ToString();
      out->actions.push_back(std::move(action).ValueOrDie());
    } else {
      auto outcome = scaler->Observe(script[i].time);
      ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
      out->observe_flags.push_back(
          static_cast<std::uint8_t>((outcome->cold_start ? 1 : 0) |
                                    (outcome->cancel_earliest_scheduled ? 2
                                                                        : 0)));
    }
  }
}

const char* const kAllStrategySpecs[] = {
    "backup_pool:pool_size=2",
    "adaptive_backup_pool:multiplier=1.5,update_interval=60,"
    "estimate_window=120",
    "robust_hp:target=0.9",
    "robust_rt:target=1.0",
    "robust_cost:target=2.0",
};

// Runs the script on `spec`, snapshotting at `cut` and restoring, and
// requires the stitched outcome stream to equal the uninterrupted control's.
void CheckContinuationParity(const Workload& w, const char* spec,
                             std::size_t cut) {
  const auto script = MakeScript(w.test);
  const std::size_t cut_step = std::min(cut, script.size());

  Scaler control = BuildScaler(w, spec);
  Outcomes expected;
  RunSteps(&control, script, 0, script.size(), &expected);

  Scaler first = BuildScaler(w, spec);
  Outcomes got;
  RunSteps(&first, script, 0, cut_step, &got);
  std::stringstream snapshot;
  ASSERT_TRUE(first.SaveState(snapshot).ok());

  auto restored = ScalerBuilder::RestoreState(snapshot);
  ASSERT_TRUE(restored.ok()) << spec << ": " << restored.status().ToString();
  RunSteps(&restored.ValueOrDie(), script, cut_step, script.size(), &got);

  EXPECT_TRUE(expected == got)
      << spec << ", cut at step " << cut_step << "/" << script.size();
}

TEST(PersistScalerParityTest, AllStrategiesContinueIdenticallyFromMidCut) {
  for (const std::uint64_t seed : {41, 44}) {
    const Workload w = MakePersistWorkload(seed);
    const std::size_t mid = MakeScript(w.test).size() / 2;
    for (const char* spec : kAllStrategySpecs) {
      CheckContinuationParity(w, spec, mid);
    }
  }
}

TEST(PersistScalerParityTest, BoundarySnapshotPoints) {
  // Cold-start boundaries: before any traffic, after exactly one step, and
  // after the final step (an exhausted scaler restores to an exhausted
  // scaler).
  const Workload w = MakePersistWorkload(42);
  const std::size_t last = MakeScript(w.test).size();
  for (const std::size_t cut : {std::size_t{0}, std::size_t{1}, last - 1,
                                last}) {
    CheckContinuationParity(w, "robust_hp:target=0.9", cut);
  }
}

TEST(PersistScalerParityTest, MidPlanSnapshotPoints) {
  // Snapshots taken right between an Observe and the Plan that drains it
  // (odd steps land mid-window, with undrained buffered actions).
  const Workload w = MakePersistWorkload(43);
  const std::size_t n = MakeScript(w.test).size();
  for (const std::size_t cut : {n / 4 + 1, n / 3 + 1, (2 * n) / 3 + 1}) {
    CheckContinuationParity(w, "robust_rt:target=1.0", cut);
    CheckContinuationParity(w, "adaptive_backup_pool:multiplier=1.5,"
                               "update_interval=60,estimate_window=120",
                            cut);
  }
}

TEST(PersistScalerParityTest, HistoryRetentionWideningSurvivesRestore) {
  // A widened retention window (more serving state) snapshots and restores
  // with the window intact — Snapshot() reports the same retention and
  // retained counts afterwards.
  const Workload w = MakePersistWorkload(46);
  const auto script = MakeScript(w.test);
  Scaler scaler = BuildScaler(w, "robust_hp:target=0.9");
  ASSERT_TRUE(scaler.ConfigureHistoryRetention(600.0).ok());
  Outcomes ignored;
  RunSteps(&scaler, script, 0, script.size() / 2, &ignored);
  const ServingSnapshot before = scaler.Snapshot();

  std::stringstream snapshot;
  ASSERT_TRUE(scaler.SaveState(snapshot).ok());
  auto restored = ScalerBuilder::RestoreState(snapshot);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  const ServingSnapshot after = restored->Snapshot();
  EXPECT_EQ(after.history_retention, before.history_retention);
  EXPECT_EQ(after.arrivals_retained, before.arrivals_retained);
  EXPECT_EQ(after.actions_retained, before.actions_retained);
  EXPECT_EQ(after.queries_observed, before.queries_observed);
  EXPECT_EQ(after.planning_rounds, before.planning_rounds);
}

TEST(PersistScalerParityTest, InjectedClockRequiresReplacementAndContinues) {
  // A scaler serving with wall-time decision charging through an injected
  // FakeDecisionClock: restore must demand a replacement clock, import its
  // position, and continue identically.
  const Workload w = MakePersistWorkload(47);
  const auto script = MakeScript(w.test);
  const std::size_t mid = script.size() / 2;

  auto serve_with_clock = [&](Scaler* scaler, sim::FakeDecisionClock* clock) {
    sim::EngineOptions options;
    options.pending = stats::DurationDistribution::Deterministic(13.0);
    options.charge_decision_wall_time = true;
    options.decision_clock = clock;
    ASSERT_TRUE(scaler->ConfigureServing(options).ok());
  };

  sim::FakeDecisionClock control_clock(0.001);
  Scaler control = BuildScaler(w, "robust_hp:target=0.9");
  serve_with_clock(&control, &control_clock);
  Outcomes expected;
  RunSteps(&control, script, 0, script.size(), &expected);

  sim::FakeDecisionClock first_clock(0.001);
  Scaler first = BuildScaler(w, "robust_hp:target=0.9");
  serve_with_clock(&first, &first_clock);
  Outcomes got;
  RunSteps(&first, script, 0, mid, &got);
  std::stringstream snapshot;
  ASSERT_TRUE(first.SaveState(snapshot).ok());

  // No replacement clock → a descriptive error, not a silent wall-clock
  // fallback.
  auto missing = ScalerBuilder::RestoreState(snapshot);
  ASSERT_FALSE(missing.ok());
  EXPECT_NE(missing.status().message().find("DecisionClock"),
            std::string::npos)
      << missing.status().ToString();

  snapshot.clear();
  snapshot.seekg(0);
  sim::FakeDecisionClock resumed_clock(0.001);
  ScalerRestoreOptions options;
  options.decision_clock = &resumed_clock;
  auto restored = ScalerBuilder::RestoreState(snapshot, options);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(resumed_clock.readings(), first_clock.readings());
  RunSteps(&restored.ValueOrDie(), script, mid, script.size(), &got);
  EXPECT_TRUE(expected == got);
}

// ---------------------------------------------------------------------------
// Fleet durability & live migration
// ---------------------------------------------------------------------------

TEST(PersistFleetTest, SaveFleetLoadFleetRoundTripsAllTenants) {
  const Workload w = MakePersistWorkload(51);
  const auto script = MakeScript(w.test);
  const std::size_t mid = script.size() / 2;

  ScalerFleet fleet(2);
  std::vector<std::string> names;
  for (const char* spec : kAllStrategySpecs) {
    const std::string name = "svc-" + std::to_string(names.size());
    ASSERT_TRUE(fleet.Register(name, BuildScaler(w, spec)).ok());
    names.push_back(name);
  }
  for (std::size_t i = 0; i < mid; ++i) {
    for (const auto& name : names) {
      if (script[i].is_plan) {
        ASSERT_TRUE(fleet.Plan(name, script[i].time).ok());
      } else {
        ASSERT_TRUE(fleet.Observe(name, script[i].time).ok());
      }
    }
  }

  std::stringstream snapshot;
  ASSERT_TRUE(fleet.SaveFleet(snapshot).ok());
  FleetRestoreOptions options;
  options.worker_threads = 2;
  auto loaded = ScalerFleet::LoadFleet(snapshot, options);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->Tenants(), fleet.Tenants());

  // Both fleets finish the script; every tenant's tail must match.
  for (std::size_t i = mid; i < script.size(); ++i) {
    for (const auto& name : names) {
      if (script[i].is_plan) {
        auto a = fleet.Plan(name, script[i].time);
        auto b = loaded->Plan(name, script[i].time);
        ASSERT_TRUE(a.ok() && b.ok()) << name;
        EXPECT_EQ(a->creation_times, b->creation_times) << name;
        EXPECT_EQ(a->deletions, b->deletions) << name;
      } else {
        auto a = fleet.Observe(name, script[i].time);
        auto b = loaded->Observe(name, script[i].time);
        ASSERT_TRUE(a.ok() && b.ok()) << name;
        EXPECT_EQ(a->cold_start, b->cold_start) << name;
        EXPECT_EQ(a->cancel_earliest_scheduled, b->cancel_earliest_scheduled)
            << name;
      }
    }
  }
}

// Live migration: tenant "mover" serves in fleet A, migrates to live fleet
// B mid-stream, and its stitched action sequence must equal an unmigrated
// control's — for every registry strategy and worker counts 0/1/8.
TEST(PersistFleetTest, LiveMigrationPreservesActionSequences) {
  const Workload w = MakePersistWorkload(52);
  const auto script = MakeScript(w.test);
  const std::size_t mid = script.size() / 2;

  for (const std::size_t workers : {std::size_t{0}, std::size_t{1},
                                    std::size_t{8}}) {
    for (const char* spec : kAllStrategySpecs) {
      Scaler control = BuildScaler(w, spec);
      Outcomes expected;
      RunSteps(&control, script, 0, script.size(), &expected);

      ScalerFleet source(workers);
      ScalerFleet target(workers);
      ASSERT_TRUE(source.Register("mover", BuildScaler(w, spec)).ok());
      // The target also hosts an unrelated busy tenant, so the migration
      // lands in a genuinely live fleet.
      ASSERT_TRUE(
          target.Register("resident", BuildScaler(w, "backup_pool")).ok());

      Outcomes got;
      for (std::size_t i = 0; i < mid; ++i) {
        if (script[i].is_plan) {
          auto action = source.Plan("mover", script[i].time);
          ASSERT_TRUE(action.ok());
          got.actions.push_back(std::move(action).ValueOrDie());
          ASSERT_TRUE(target.Plan("resident", script[i].time).ok());
        } else {
          auto outcome = source.Observe("mover", script[i].time);
          ASSERT_TRUE(outcome.ok());
          got.observe_flags.push_back(static_cast<std::uint8_t>(
              (outcome->cold_start ? 1 : 0) |
              (outcome->cancel_earliest_scheduled ? 2 : 0)));
          ASSERT_TRUE(target.Observe("resident", script[i].time).ok());
        }
      }

      ASSERT_TRUE(source.MigrateTenant("mover", &target).ok())
          << spec << ", workers=" << workers;
      EXPECT_EQ(source.Find("mover"), nullptr);
      ASSERT_EQ(source.size(), 0u);
      ASSERT_EQ(target.size(), 2u);

      for (std::size_t i = mid; i < script.size(); ++i) {
        if (script[i].is_plan) {
          auto action = target.Plan("mover", script[i].time);
          ASSERT_TRUE(action.ok());
          got.actions.push_back(std::move(action).ValueOrDie());
        } else {
          auto outcome = target.Observe("mover", script[i].time);
          ASSERT_TRUE(outcome.ok());
          got.observe_flags.push_back(static_cast<std::uint8_t>(
              (outcome->cold_start ? 1 : 0) |
              (outcome->cancel_earliest_scheduled ? 2 : 0)));
        }
      }
      EXPECT_TRUE(expected == got) << spec << ", workers=" << workers;
    }
  }
}

TEST(PersistFleetTest, FailedMigrationLeavesBothFleetsUnchanged) {
  const Workload w = MakePersistWorkload(53);
  ScalerFleet source;
  ScalerFleet target;
  ASSERT_TRUE(
      source.Register("svc", BuildScaler(w, "backup_pool")).ok());
  ASSERT_TRUE(
      target.Register("svc", BuildScaler(w, "backup_pool")).ok());

  // Name collision in the target: the restore is rejected, the source keeps
  // its tenant.
  auto collision = source.MigrateTenant("svc", &target);
  ASSERT_FALSE(collision.ok());
  EXPECT_EQ(source.size(), 1u);
  EXPECT_EQ(target.size(), 1u);
  EXPECT_NE(source.Find("svc"), nullptr);

  // Self-migration and null targets are rejected up front.
  EXPECT_FALSE(source.MigrateTenant("svc", &source).ok());
  EXPECT_FALSE(source.MigrateTenant("svc", nullptr).ok());

  // A rename resolves the collision; afterwards the source really is empty.
  TenantRestoreOptions rename;
  rename.rename = "svc-moved";
  ASSERT_TRUE(source.MigrateTenant("svc", &target, rename).ok());
  EXPECT_EQ(source.size(), 0u);
  EXPECT_EQ(target.size(), 2u);
  EXPECT_NE(target.Find("svc-moved"), nullptr);
}

void AppendLe(std::string* out, std::uint64_t value, std::size_t width) {
  for (std::size_t i = 0; i < width; ++i) {
    out->push_back(static_cast<char>((value >> (8 * i)) & 0xFFu));
  }
}

/// A SaveFleet container framed by hand in FLET layout `fleet_version` (1:
/// no freshness flag; 2: the flag, and a TENT without the HLTH section v3
/// added) around one tenant "svc" whose SCLR section is `sclr`.
std::string HandFramedFleet(std::uint32_t fleet_version,
                            std::string_view sclr) {
  std::string tent;
  AppendLe(&tent, 3, 8);
  tent += "svc";
  tent += sclr;
  std::string flet;
  AppendLe(&flet, fleet_version, 4);
  if (fleet_version >= 2) AppendLe(&flet, 0, 1);  // Freshness off.
  AppendLe(&flet, 1, 8);                           // One tenant.
  AppendLe(&flet, persist::kTagTenant, 4);
  AppendLe(&flet, tent.size(), 8);
  flet += tent;
  std::string out;
  AppendLe(&out, persist::kMagic, 4);
  AppendLe(&out, persist::kFormatVersion, 4);
  AppendLe(&out, persist::kTagFleet, 4);
  AppendLe(&out, flet.size(), 8);
  out += flet;
  AppendLe(&out, persist::Crc32(out.data(), out.size()), 4);
  return out;
}

TEST(PersistFleetTest, FleetLayoutsOneAndTwoLoadWithDefaultHealth) {
  const Workload w = MakePersistWorkload(54);
  const auto script = MakeScript(w.test);
  std::ostringstream saved;
  ASSERT_TRUE(BuildScaler(w, "robust_hp").SaveState(saved).ok());
  const std::string container = saved.str();
  // The SCLR section: the container minus its 8-byte header and CRC.
  const std::string_view sclr =
      std::string_view(container).substr(8, container.size() - 12);

  for (const std::uint32_t version : {1u, 2u}) {
    SCOPED_TRACE("FLET layout " + std::to_string(version));
    std::istringstream bytes(HandFramedFleet(version, sclr));
    auto loaded = ScalerFleet::LoadFleet(bytes);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    ASSERT_EQ(loaded->Tenants(), std::vector<std::string>{"svc"});
    auto health = loaded->Health("svc");
    ASSERT_TRUE(health.ok());
    EXPECT_EQ(health->health, TenantHealth::kHealthy);
    EXPECT_EQ(health->plan_failures, 0u);
    EXPECT_EQ(health->retry_at, -std::numeric_limits<double>::infinity());
    auto freshness = loaded->Freshness("svc");
    ASSERT_TRUE(freshness.ok());
    EXPECT_FALSE(freshness->enabled);

    ScalerFleet control;
    std::istringstream state(container);
    auto restored = ScalerBuilder::RestoreState(state);
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    ASSERT_TRUE(control.Register("svc", std::move(*restored)).ok());
    for (const Step& step : script) {
      if (step.is_plan) {
        auto a = control.Plan("svc", step.time);
        auto b = loaded->Plan("svc", step.time);
        ASSERT_TRUE(a.ok() && b.ok());
        ASSERT_EQ(a->creation_times, b->creation_times) << step.time;
        ASSERT_EQ(a->deletions, b->deletions) << step.time;
      } else {
        auto a = control.Observe("svc", step.time);
        auto b = loaded->Observe("svc", step.time);
        ASSERT_TRUE(a.ok() && b.ok());
        ASSERT_EQ(a->cold_start, b->cold_start) << step.time;
      }
    }
  }
}

// tests/data/example_fleet.rsnp is a SaveFleet container written by the
// codec before its records moved onto field lists, and is never
// regenerated. The golden digests only prove that a decoder reads what the
// matching encoder writes; this fixture proves the decoder still reads what
// the old encoder wrote, and that re-encoding gives back the same bytes.
//
// Recipe: five tenants, one per registered strategy ("drift" robust_hp with
// target=0.9, "rt" robust_rt, "cost" robust_cost, "quarantined"
// backup_pool, "adapt" adaptive_backup_pool), each trained on 3600 s of a
// sine-modulated 0.2 qps trace (60 s bins, period 1200 s) with a 1800 s
// forecast, 20 Monte Carlo samples and a 60 s planning interval. The fleet
// enables freshness (dt 60 s, horizon 1800 s, min retrain interval 60 s,
// inline retrains) and serves a 0.2 qps stream per tenant with PlanAll
// every 60 s through t = 1320 s. The "drift" tenant's rate quadruples at
// 600 s, so its detector latches, and every train.refit fails for it, so
// the latch and the warm start the session carries from training both
// stay. Every fleet.plan of "quarantined" from its 20th fails, so its
// breaker is open (quarantined, retry pending) at the cut.
TEST(PersistFleetTest, CommittedFleetFixtureReencodesByteForByte) {
  const std::string path =
      (std::filesystem::path(__FILE__).parent_path() / "data" /
       "example_fleet.rsnp")
          .string();
  std::ifstream file(path, std::ios::binary);
  ASSERT_TRUE(file) << path;
  const std::string fixture((std::istreambuf_iterator<char>(file)),
                            std::istreambuf_iterator<char>());
  std::istringstream in(fixture);
  auto loaded = ScalerFleet::LoadFleet(in);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->Tenants(), (std::vector<std::string>{
                                   "drift", "rt", "cost", "quarantined",
                                   "adapt"}));
  auto drift = loaded->Freshness("drift");
  ASSERT_TRUE(drift.ok());
  EXPECT_EQ(drift->drift, ts::DriftKind::kRateShift);
  auto health = loaded->Health("quarantined");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health->health, TenantHealth::kQuarantined);

  std::ostringstream out;
  ASSERT_TRUE(loaded->SaveFleet(out).ok());
  EXPECT_TRUE(out.str() == fixture)
      << "re-encoded " << out.str().size() << " bytes differ from the "
      << fixture.size() << "-byte fixture";

  // The inspector's printer walks the same field lists to the last byte.
  auto reader = persist::Reader::FromBytes(fixture);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  std::ostringstream printed;
  persist::Printer printer(&*reader, &printed);
  ASSERT_TRUE(ScalerFleet::DescribeFleetSection(&printer).ok())
      << printer.status().ToString();
  EXPECT_EQ(reader->remaining(), 0u);
  const std::string text = printed.str();
  const auto count = [&text](const std::string& needle) {
    std::size_t n = 0;
    for (auto at = text.find(needle); at != std::string::npos;
         at = text.find(needle, at + 1)) {
      ++n;
    }
    return n;
  };
  EXPECT_EQ(count("TENT tenant"), 5u);
  EXPECT_EQ(count("FRSH freshness state"), 5u);
  EXPECT_EQ(count("ROBS RobustScaler model"), 3u);
  EXPECT_EQ(count("BPMD backup pool model"), 1u);
  EXPECT_EQ(count("ABPM adaptive backup pool model"), 1u);
  EXPECT_EQ(count("\n      state = 2\n"), 1u) << "one quarantined tenant";
  EXPECT_EQ(count("\n        kind = 1\n"), 1u) << "one latched rate shift";
  EXPECT_EQ(count("warm_start = 0 values"), 0u) << text;
  // MIRR's tail: the schedule, the live set, the arrival window, the
  // undrained buffer and the parity log, once per tenant.
  for (const char* field :
       {"schedule = ", "live = ", "arrival_window = ",
        "buffered_creation_times = ", "buffered_deletions = ",
        "buffered_seqs = ", "log = ", "log_times = "}) {
    EXPECT_EQ(count(std::string("\n        ") + field), 5u) << field;
  }
}

}  // namespace
}  // namespace rs::api
