#include "rs/persist/persist.hpp"

#include <array>
#include <bit>
#include <iterator>
#include <sstream>
#include <type_traits>
#include <utility>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#define RS_CRC32_FOLD 1
#endif

#include "rs/common/logging.hpp"
#include "rs/persist/fields.hpp"

namespace rs::persist {

namespace {

constexpr std::size_t kHeaderBytes = 8;   // magic + format version.
constexpr std::size_t kTrailerBytes = 4;  // CRC32.
constexpr std::size_t kSectionHeaderBytes = 12;  // tag (u32) + length (u64).

/// Builds a Status message from heterogeneous pieces (the Status factories
/// take a single string).
template <typename... Args>
std::string Cat(Args&&... args) {
  std::ostringstream msg;
  (msg << ... << args);
  return msg.str();
}

void AppendLe(std::string* buffer, std::uint64_t value, std::size_t width) {
  char bytes[8];
  StoreLe(bytes, value, width);
  buffer->append(bytes, width);
}

/// Slicing-by-8 tables: kCrcTables[0] is the bytewise table; entry k of
/// table j is the CRC of byte k followed by j zero bytes, so eight bytes
/// fold in with eight independent lookups instead of a serial chain.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr CrcTables MakeCrcTables() {
  CrcTables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0xEDB88320u : 0u);
    }
    tables[0][i] = crc;
  }
  for (std::uint32_t i = 0; i < 256; ++i) {
    for (std::size_t j = 1; j < 8; ++j) {
      const std::uint32_t prev = tables[j - 1][i];
      tables[j][i] = (prev >> 8) ^ tables[0][prev & 0xFFu];
    }
  }
  return tables;
}

constexpr CrcTables kCrcTables = MakeCrcTables();

/// Little-endian u32 from four bytes, whatever the host byte order.
std::uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

/// The table kernel: slicing-by-8 over `n` bytes of the running (inverted)
/// CRC state, bytewise for the last 0-7.
std::uint32_t CrcTableKernel(std::uint32_t crc, const unsigned char* bytes,
                             std::size_t n) {
  const auto& t = kCrcTables;
  for (; n >= 8; n -= 8, bytes += 8) {
    const std::uint32_t lo = crc ^ LoadLe32(bytes);
    const std::uint32_t hi = LoadLe32(bytes + 4);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; --n, ++bytes) {
    crc = (crc >> 8) ^ t[0][(crc ^ *bytes) & 0xFFu];
  }
  return crc;
}

#ifdef RS_CRC32_FOLD

/// Inputs this long or longer fold with carry-less multiplies.
constexpr std::size_t kCrcFoldMinBytes = 64;

bool CpuHasClmul() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("pclmul");
}

/// Read at every long Crc32. A call made before this is initialized (from
/// another unit's static initializer) reads false and uses the tables,
/// which give the same value.
const bool kCpuHasClmul = CpuHasClmul();

/// One folding step: `acc` advanced by the distance `k` encodes, plus the
/// next 16 bytes. k holds two constants x^d mod P (bit-reflected), one per
/// 64-bit half of the accumulator.
__attribute__((target("pclmul,sse2"))) inline __m128i Fold16(__m128i acc,
                                                             __m128i k,
                                                             __m128i next) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(acc, k, 0x00),
                                     _mm_clmulepi64_si128(acc, k, 0x11)),
                       next);
}

/// The folded kernel over `n` bytes (n >= 64, a multiple of 16) of the
/// running (inverted) CRC state: four 128-bit lanes fold 64 bytes a step,
/// then fold into one lane, which folds 16 bytes a step; the last 128 bits
/// reduce to 64, then to the 32-bit state by Barrett reduction. This is
/// Gopal et al., "Fast CRC Computation for Generic Polynomials Using
/// PCLMULQDQ Instruction" (Intel, 2009), with the constants of its
/// bit-reflected CRC-32 (the ones zlib and Linux use).
__attribute__((target("pclmul,sse2"))) std::uint32_t CrcFoldKernel(
    std::uint32_t crc, const unsigned char* bytes, std::size_t n) {
  const auto load = [](const unsigned char* p) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  };
  // _mm_set_epi64x takes the high half first.
  const __m128i k64 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k16 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k4 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i barrett = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);

  __m128i lane0 = _mm_xor_si128(load(bytes), _mm_cvtsi32_si128(
                                                 static_cast<int>(crc)));
  __m128i lane1 = load(bytes + 16);
  __m128i lane2 = load(bytes + 32);
  __m128i lane3 = load(bytes + 48);
  bytes += 64;
  n -= 64;
  for (; n >= 64; n -= 64, bytes += 64) {
    lane0 = Fold16(lane0, k64, load(bytes));
    lane1 = Fold16(lane1, k64, load(bytes + 16));
    lane2 = Fold16(lane2, k64, load(bytes + 32));
    lane3 = Fold16(lane3, k64, load(bytes + 48));
  }
  __m128i acc = Fold16(lane0, k16, lane1);
  acc = Fold16(acc, k16, lane2);
  acc = Fold16(acc, k16, lane3);
  for (; n >= 16; n -= 16, bytes += 16) acc = Fold16(acc, k16, load(bytes));

  // 128 -> 64 bits, then 64 -> 32 bits of remainder state.
  acc = _mm_xor_si128(_mm_srli_si128(acc, 8),
                      _mm_clmulepi64_si128(acc, k16, 0x10));
  acc = _mm_xor_si128(_mm_srli_si128(acc, 4),
                      _mm_clmulepi64_si128(_mm_and_si128(acc, low32), k4,
                                           0x00));
  // Barrett: q = floor(acc * mu), then acc ^= q * P leaves the CRC in the
  // second 32-bit word.
  __m128i q = _mm_clmulepi64_si128(_mm_and_si128(acc, low32), barrett, 0x10);
  q = _mm_clmulepi64_si128(_mm_and_si128(q, low32), barrett, 0x00);
  acc = _mm_xor_si128(acc, q);
  return static_cast<std::uint32_t>(_mm_cvtsi128_si32(_mm_srli_si128(acc, 4)));
}

#endif  // RS_CRC32_FOLD

}  // namespace

std::string TagToString(std::uint32_t tag) {
  std::string out;
  out.reserve(6);
  out.push_back('\'');
  for (int i = 0; i < 4; ++i) {
    const char c = static_cast<char>((tag >> (8 * i)) & 0xFFu);
    out.push_back((c >= 0x20 && c < 0x7F) ? c : '?');
  }
  out.push_back('\'');
  return out;
}

std::uint32_t Crc32(const void* data, std::size_t n, std::uint32_t seed) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint32_t crc = ~seed;
#ifdef RS_CRC32_FOLD
  if (n >= kCrcFoldMinBytes && kCpuHasClmul) {
    const std::size_t folded = n & ~std::size_t{15};
    crc = CrcFoldKernel(crc, bytes, folded);
    bytes += folded;
    n -= folded;
  }
#endif
  return ~CrcTableKernel(crc, bytes, n);
}

Writer::Writer() { Reset(); }

void Writer::Reset() {
  buffer_.clear();
  open_.clear();
  AppendLe(&buffer_, kMagic, 4);
  AppendLe(&buffer_, kFormatVersion, 4);
}

void Writer::ResetBare() {
  buffer_.clear();
  open_.clear();
}

void Writer::PatchU32(std::size_t offset, std::uint32_t value) {
  RS_CHECK(offset + 4 <= buffer_.size()) << "PatchU32 past the encoded bytes";
  StoreLe(buffer_.data() + offset, value, 4);
}

void Writer::swap(Writer& other) noexcept {
  buffer_.swap(other.buffer_);
  open_.swap(other.open_);
}

char* Writer::Extend(std::size_t n) {
  const std::size_t at = buffer_.size();
  buffer_.resize(at + n);
  return buffer_.data() + at;
}

void Writer::WriteU8(std::uint8_t value) { AppendLe(&buffer_, value, 1); }

void Writer::WriteBool(bool value) { WriteU8(value ? 1 : 0); }

void Writer::WriteU32(std::uint32_t value) { AppendLe(&buffer_, value, 4); }

void Writer::WriteU64(std::uint64_t value) { AppendLe(&buffer_, value, 8); }

void Writer::WriteDouble(double value) {
  WriteU64(std::bit_cast<std::uint64_t>(value));
}

void Writer::WriteString(std::string_view value) {
  WriteU64(value.size());
  buffer_.append(value.data(), value.size());
}

void Writer::WriteDoubleVector(const std::vector<double>& values) {
  WriteU64(values.size());
  for (const double v : values) WriteDouble(v);
}

void Writer::WriteU64Vector(const std::vector<std::uint64_t>& values) {
  WriteU64(values.size());
  for (const std::uint64_t v : values) WriteU64(v);
}

void Writer::BeginSection(std::uint32_t tag) {
  WriteU32(tag);
  open_.push_back(buffer_.size());
  WriteU64(0);  // Length placeholder, backpatched by EndSection().
}

void Writer::EndSection() {
  RS_CHECK(!open_.empty()) << "EndSection() without a matching BeginSection()";
  const std::size_t length_offset = open_.back();
  open_.pop_back();
  StoreLe(buffer_.data() + length_offset,
          buffer_.size() - (length_offset + 8), 8);
}

std::string_view Writer::Finish() {
  RS_CHECK(open_.empty()) << "Finish() with an unclosed section";
  AppendLe(&buffer_, Crc32(buffer_.data(), buffer_.size()), kTrailerBytes);
  return buffer_;
}

Status Writer::Finish(std::ostream& out) {
  const std::string_view bytes = Finish();
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.flush();
  if (!out.good()) {
    return Status::IoError(Cat("failed to write snapshot (", bytes.size(),
                               " bytes) to output stream"));
  }
  return Status::OK();
}

Result<Reader> Reader::FromStream(std::istream& in) {
  std::string bytes(std::istreambuf_iterator<char>(in),
                    std::istreambuf_iterator<char>{});
  if (in.bad()) {
    return Status::IoError("failed to read snapshot from input stream");
  }
  return FromBytes(std::move(bytes));
}

Result<Reader> Reader::FromBytes(std::string bytes) {
  if (bytes.empty()) {
    // Zero bytes is its own failure mode (an empty file from `touch`, a
    // crash before any write, a truncated-to-nothing journal segment);
    // name it instead of folding it into the generic truncation message.
    return Status::Invalid(
        "snapshot is empty (0 bytes): no header, no payload, no CRC — "
        "the file was never written or was truncated to nothing");
  }
  if (bytes.size() < kHeaderBytes + kTrailerBytes) {
    return Status::Invalid(Cat("snapshot truncated: ", bytes.size(),
                               " bytes is smaller than the ",
                               kHeaderBytes + kTrailerBytes,
                               "-byte header + CRC trailer"));
  }
  Reader reader;
  reader.bytes_ = std::move(bytes);
  reader.payload_end_ = reader.bytes_.size() - kTrailerBytes;
  reader.cursor_ = 0;
  const auto read_u32 = [&reader](std::size_t offset) {
    return static_cast<std::uint32_t>(
        LoadLe(reader.bytes_.data() + offset, 4));
  };
  const std::uint32_t magic = read_u32(0);
  if (magic != kMagic) {
    return Status::Invalid(
        Cat("not a RobustScaler snapshot: bad magic 0x", std::hex, magic,
            " (expected \"RSNP\"); the file is corrupt or of a different "
            "format"));
  }
  reader.version_ = read_u32(4);
  RS_RETURN_NOT_OK(
      CheckLayerVersion("snapshot format", reader.version_, kFormatVersion));
  const std::uint32_t stored_crc = read_u32(reader.payload_end_);
  const std::uint32_t actual_crc =
      Crc32(reader.bytes_.data(), reader.payload_end_);
  if (stored_crc != actual_crc) {
    return Status::Invalid(Cat("snapshot CRC mismatch (stored 0x", std::hex,
                               stored_crc, ", computed 0x", actual_crc,
                               "): the file was truncated or corrupted in "
                               "transit"));
  }
  reader.cursor_ = kHeaderBytes;
  return reader;
}

Reader Reader::OverBytes(std::string_view bytes) {
  Reader reader;
  reader.borrowed_ = bytes.data();
  reader.payload_end_ = bytes.size();
  return reader;
}

Status Reader::Underflow(std::size_t width) const {
  return Status::Invalid(Cat("snapshot section underflow: need ", width,
                             " bytes but only ", remaining(),
                             " remain before the section boundary"));
}

Result<std::uint64_t> Reader::ReadRaw(std::size_t width) {
  std::uint64_t value = 0;
  if (!TakeLe(width, &value)) return Underflow(width);
  return value;
}

Result<std::uint8_t> Reader::ReadU8() {
  RS_ASSIGN_OR_RETURN(const std::uint64_t raw, ReadRaw(1));
  return static_cast<std::uint8_t>(raw);
}

namespace {

Status CorruptBool(std::uint64_t raw) {
  return Status::Invalid(
      Cat("corrupt boolean in snapshot (byte value ", raw, ")"));
}

}  // namespace

Result<bool> Reader::ReadBool() {
  RS_ASSIGN_OR_RETURN(const std::uint64_t raw, ReadRaw(1));
  if (raw > 1) return CorruptBool(raw);
  return raw == 1;
}

Result<std::uint32_t> Reader::ReadU32() {
  RS_ASSIGN_OR_RETURN(const std::uint64_t raw, ReadRaw(4));
  return static_cast<std::uint32_t>(raw);
}

Result<std::uint64_t> Reader::ReadU64() { return ReadRaw(8); }

Status CheckLayerVersion(std::string_view what, std::uint32_t version,
                         std::uint32_t newest) {
  if (version == 0) {
    return Status::Invalid(
        Cat(what, " version 0 is never written; the data is corrupt"));
  }
  if (version > newest) {
    return Status::Invalid(Cat(what, " version ", version,
                               " is newer than this build understands",
                               " (reads 1..", newest, "); upgrade the reader"));
  }
  return Status::OK();
}

Status Reader::ReadLayerVersion(std::string_view what, std::uint32_t newest,
                                std::uint32_t* version) {
  RS_ASSIGN_OR_RETURN(const std::uint32_t read, ReadU32());
  if (version != nullptr) *version = read;
  return CheckLayerVersion(what, read, newest);
}

Result<double> Reader::ReadDouble() {
  RS_ASSIGN_OR_RETURN(const std::uint64_t raw, ReadRaw(8));
  return std::bit_cast<double>(raw);
}

Result<std::string> Reader::ReadString() {
  RS_ASSIGN_OR_RETURN(const std::uint64_t length, ReadU64());
  if (length > limit() - cursor_) {
    return Status::Invalid(Cat("corrupt string length in snapshot: ", length,
                               " bytes claimed but only ", limit() - cursor_,
                               " remain in the section"));
  }
  std::string out(data() + cursor_, length);
  cursor_ += length;
  return out;
}

Status Reader::ReadDoubleVector(std::vector<double>* out) {
  RS_ASSIGN_OR_RETURN(const std::uint64_t count, ReadU64());
  if (count > (limit() - cursor_) / 8) {
    return Status::Invalid(Cat("corrupt vector length in snapshot: ", count,
                               " doubles claimed but only ",
                               limit() - cursor_,
                               " bytes remain in the section"));
  }
  out->clear();
  out->reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint64_t raw = 0;
    TakeLe(8, &raw);  // In bounds: the count is checked above.
    out->push_back(std::bit_cast<double>(raw));
  }
  return Status::OK();
}

Status Reader::ReadU64Vector(std::vector<std::uint64_t>* out) {
  RS_ASSIGN_OR_RETURN(const std::uint64_t count, ReadU64());
  if (count > (limit() - cursor_) / 8) {
    return Status::Invalid(Cat("corrupt vector length in snapshot: ", count,
                               " words claimed but only ", limit() - cursor_,
                               " bytes remain in the section"));
  }
  out->clear();
  out->reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint64_t value = 0;
    TakeLe(8, &value);  // In bounds: the count is checked above.
    out->push_back(value);
  }
  return Status::OK();
}

Result<std::uint32_t> Reader::PeekSectionTag() const {
  if (limit() - cursor_ < kSectionHeaderBytes) {
    return Status::Invalid(
        Cat("snapshot ends where a section header was expected (",
            remaining(), " bytes remain)"));
  }
  return static_cast<std::uint32_t>(LoadLe(data() + cursor_, 4));
}

bool Reader::AtSection(std::uint32_t tag) const {
  const Result<std::uint32_t> next = PeekSectionTag();
  return next.ok() && *next == tag;
}

Status Reader::EnterSection(std::uint32_t expected) {
  RS_ASSIGN_OR_RETURN(const std::uint32_t tag, ReadU32());
  if (tag != expected) {
    return Status::Invalid(
        Cat("snapshot section mismatch: expected ", TagToString(expected),
            " but found ", TagToString(tag),
            " — the file is corrupt or from an incompatible layer layout"));
  }
  RS_ASSIGN_OR_RETURN(const std::uint64_t length, ReadU64());
  if (length > limit() - cursor_) {
    return Status::Invalid(Cat("corrupt section length for ",
                               TagToString(tag), ": ", length,
                               " bytes claimed but only ", limit() - cursor_,
                               " remain"));
  }
  ends_.push_back(cursor_ + length);
  return Status::OK();
}

Status Reader::ExitSection() {
  if (ends_.empty()) {
    return Status::Invalid("ExitSection() without an open snapshot section");
  }
  cursor_ = ends_.back();
  ends_.pop_back();
  return Status::OK();
}

Status Reader::SkipSection() {
  RS_ASSIGN_OR_RETURN(const std::uint32_t tag, PeekSectionTag());
  RS_RETURN_NOT_OK(EnterSection(tag));
  return ExitSection();
}

// -- Field types (fields.hpp) ----------------------------------------------

namespace {

/// A fixed-width field, loaded in place: no Result on the way.
template <class T>
void GetLe(Reader* r, T* v, Status* error) {
  std::uint64_t raw = 0;
  if (!r->TakeLe(sizeof(T), &raw)) {
    *error = r->Underflow(sizeof(T));
  } else if constexpr (std::is_floating_point_v<T>) {
    *v = std::bit_cast<T>(raw);
  } else {
    *v = static_cast<T>(raw);
  }
}

}  // namespace

void Get(Reader* r, bool* v, Status* error) {
  std::uint64_t raw = 0;
  if (!r->TakeLe(1, &raw)) {
    *error = r->Underflow(1);
  } else if (raw > 1) {
    *error = CorruptBool(raw);
  } else {
    *v = raw == 1;
  }
}
void Get(Reader* r, std::uint32_t* v, Status* error) { GetLe(r, v, error); }
void Get(Reader* r, std::uint64_t* v, Status* error) { GetLe(r, v, error); }
void Get(Reader* r, double* v, Status* error) { GetLe(r, v, error); }
void Get(Reader* r, std::string* v, Status* error) {
  Store(r->ReadString(), v, error);
}
void Get(Reader* r, std::vector<double>* v, Status* error) {
  *error = r->ReadDoubleVector(v);
}
void Get(Reader* r, std::vector<std::uint64_t>* v, Status* error) {
  *error = r->ReadU64Vector(v);
}

void Put(Writer* w, const stats::Rng& v) {
  const stats::Rng::State state = v.SaveState();
  for (const std::uint64_t word : state.s) w->WriteU64(word);
  w->WriteBool(state.have_cached_gaussian);
  w->WriteDouble(state.cached_gaussian);
}

void Get(Reader* r, stats::Rng* v, Status* error) {
  stats::Rng::State state;
  Decoder io(r);
  for (std::uint64_t& word : state.s) io("state word", word);
  io("have_cached_gaussian", state.have_cached_gaussian);
  io("cached_gaussian", state.cached_gaussian);
  if (io.ok()) v->RestoreState(state);
  *error = io.status();
}

void Put(Writer* w, const std::map<std::string, double>& v) {
  w->WriteU64(v.size());
  for (const auto& [key, value] : v) {
    w->WriteString(key);
    w->WriteDouble(value);
  }
}

void Get(Reader* r, std::map<std::string, double>* v, Status* error) {
  Decoder io(r);
  std::uint64_t count = 0;
  io("count", count);
  v->clear();
  for (std::uint64_t i = 0; i < count && io.ok(); ++i) {
    std::string key;
    io("key", key);
    io("value", (*v)[std::move(key)]);
  }
  *error = io.status();
}

void Show(std::ostream& os, const std::map<std::string, double>& v) {
  const char* sep = "{";
  for (const auto& [key, value] : v) {
    os << sep << key << ": " << value;
    sep = ", ";
  }
  os << (v.empty() ? "{}" : "}");
}

void Put(Writer* w, const stats::DurationDistribution& v) {
  w->WriteU8(static_cast<std::uint8_t>(v.kind()));
  w->WriteDouble(v.param1());
  w->WriteDouble(v.param2());
}

void Get(Reader* r, stats::DurationDistribution* v, Status* error) {
  const Result<std::uint8_t> kind = r->ReadU8();
  if (!kind.ok()) {
    *error = kind.status();
    return;
  }
  double p1 = 0.0;
  double p2 = 0.0;
  Decoder io(r);
  io("param1", p1);
  io("param2", p2);
  if (!io.ok()) {
    *error = io.status();
    return;
  }
  Store(stats::DurationDistribution::FromRawParams(*kind, p1, p2), v, error);
}

void Show(std::ostream& os, const stats::DurationDistribution& v) {
  static const char* const kNames[] = {"deterministic", "exponential",
                                       "lognormal", "weibull", "uniform"};
  os << kNames[static_cast<int>(v.kind())] << '(' << v.param1() << ", "
     << v.param2() << ')';
}

void Show(std::ostream& os, const stats::Rng& v) {
  const stats::Rng::State state = v.SaveState();
  os << std::hex << state.s[0] << ' ' << state.s[1] << ' ' << state.s[2]
     << ' ' << state.s[3] << std::dec;
  if (state.have_cached_gaussian) os << " + gaussian " << state.cached_gaussian;
}

}  // namespace rs::persist
