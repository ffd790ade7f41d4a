/// \file fields.hpp
/// \brief Field lists: one declaration per snapshot record drives its
///        encoder, its decoder and the inspector's printer.
///
/// A record lists its fields once, in wire order, as io("name", rec.field)
/// calls in a `template <class Io, class Rec> Status XFields(Io&, Rec&)`
/// (HealthFields in api/scaler_fleet.cpp is a short one), and three
/// visitors run that list:
///  * Encoder, over a Writer or any output with its method names (Rec is
///    const): each io(...) is one Write*.
///  * Decoder, over a Reader: each io(...) is one Read* into the field. The
///    first error wins and every later field is skipped, so a list needs no
///    per-field error handling. An enum field names its last valid value
///    and a byte past it is refused. A section skips the bytes after its
///    last known field (a newer writer's), unless io.End closes it.
///  * Printer, over a Reader: decodes like Decoder and prints one
///    `name = value` line per field (vectors as their length), one level
///    deeper inside each section.
/// The encoder and decoder ignore the names and inline the list, so they
/// compile to the Writer/Reader calls a hand-written codec makes.
///
/// To add a field: append it, bump the record's layer version, and gate
/// the field on the version io.Version() returned. Checks that span fields
/// (domain ranges, cross-record consistency) run after the decode, in the
/// layer's reader.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "rs/common/status.hpp"
#include "rs/persist/persist.hpp"
#include "rs/stats/distributions.hpp"
#include "rs/stats/rng.hpp"

namespace rs::persist {

// Field types: one Put (encode), Get (decode) and Show (print) overload
// each. A type a layer's lists name as one field gets its three in its own
// namespace, where the visitors find them by argument-dependent lookup.
// The Puts of the plain types take any output with the Writer's method
// names (see Encoder).
template <class Out>
void Put(Out* w, bool v) {
  w->WriteBool(v);
}
template <class Out>
void Put(Out* w, std::uint32_t v) {
  w->WriteU32(v);
}
template <class Out>
void Put(Out* w, std::uint64_t v) {
  w->WriteU64(v);
}
template <class Out>
void Put(Out* w, double v) {
  w->WriteDouble(v);
}
template <class Out>
void Put(Out* w, const std::string& v) {
  w->WriteString(v);
}
template <class Out>
void Put(Out* w, const std::vector<double>& v) {
  w->WriteDoubleVector(v);
}
inline void Put(Writer* w, const std::vector<std::uint64_t>& v) {
  w->WriteU64Vector(v);
}
/// The exact generator position (the 256-bit xoshiro state and the
/// Box–Muller cache), so a restored stream continues bit for bit.
void Put(Writer* w, const stats::Rng& v);
/// A u64 count, then (key, value) pairs in key order.
void Put(Writer* w, const std::map<std::string, double>& v);
/// The kind byte, then the two raw parameters.
void Put(Writer* w, const stats::DurationDistribution& v);

/// Stores a read's value in *out, or its error in *error.
template <class T, class U>
void Store(Result<U> read, T* out, Status* error) {
  if (read.ok()) {
    *out = std::move(*read);
  } else {
    *error = read.status();
  }
}
// A Get decodes one field into *v, or stores why it could not in *error,
// which is OK on entry; the Decoder then skips every later field. Out of
// line and latching its own error, a Get is the one call a decoded field
// costs, and the field lists do not swell the translation units that hold
// a layer's hot path.
void Get(Reader* r, bool* v, Status* error);
void Get(Reader* r, std::uint32_t* v, Status* error);
void Get(Reader* r, std::uint64_t* v, Status* error);
void Get(Reader* r, double* v, Status* error);
void Get(Reader* r, std::string* v, Status* error);
void Get(Reader* r, std::vector<double>* v, Status* error);
void Get(Reader* r, std::vector<std::uint64_t>* v, Status* error);
void Get(Reader* r, stats::Rng* v, Status* error);
void Get(Reader* r, std::map<std::string, double>* v, Status* error);
/// Re-validates the parameters (DurationDistribution::FromRawParams).
void Get(Reader* r, stats::DurationDistribution* v, Status* error);

template <class T>
void Show(std::ostream& os, const T& v) {
  os << v;
}
inline void Show(std::ostream& os, bool v) { os << (v ? "true" : "false"); }
inline void Show(std::ostream& os, const std::string& v) {
  os << '"' << v << '"';
}
template <class T>
void Show(std::ostream& os, const std::vector<T>& v) {
  os << v.size() << " values";
}
void Show(std::ostream& os, const std::map<std::string, double>& v);
void Show(std::ostream& os, const stats::Rng& v);
void Show(std::ostream& os, const stats::DurationDistribution& v);

/// Runs a field list forward over an output with the Writer's method
/// names: a Writer, or a caller's sizing or in-place store pass over the
/// same list (trace/capture.cpp sizes a PlanAll record, then stores it into
/// one Writer::Extend run).
template <class Out>
class Encoder {
 public:
  explicit Encoder(Out* out) : out_(out) {}

  template <class T>
  void operator()(const char* /*name*/, const T& value) {
    Put(out_, value);
  }
  /// An enum field: one byte on the wire.
  template <class E>
    requires std::is_enum_v<E>
  void operator()(const char* /*name*/, const E& value, E /*last*/) {
    out_->WriteU8(static_cast<std::uint8_t>(value));
  }
  /// The record's u32 layout version: writes `newest` and returns it.
  std::uint32_t Version(const char* /*what*/, std::uint32_t newest) {
    out_->WriteU32(newest);
    return newest;
  }
  /// A nested section whose fields `body` lists.
  template <class Body>
  void Section(const char* /*title*/, std::uint32_t tag, Body&& body) {
    out_->BeginSection(tag);
    body();
    out_->EndSection();
  }
  /// A u64 count, then `fields(*this, item)` for each item.
  template <class Items, class Fields>
  void Each(const char* /*name*/, const Items& items, Fields&& fields) {
    out_->WriteU64(items.size());
    for (const auto& item : items) fields(*this, item);
  }
  /// The end of a section with no growth point (nothing to write).
  void End(const char* /*after*/) {}

  Status status() const { return Status::OK(); }

 private:
  Out* out_;
};

/// Runs a field list over a Reader into a record: the Decoder, or (kPrint)
/// the Printer, which also prints each field it decodes.
template <bool kPrint>
class FieldReader {
 public:
  template <class T>
  void operator()(const char* name, T& value) {
    if (ok()) Get(reader_, &value, &status_);
    if constexpr (kPrint) {
      if (ok()) Show(Line(name), value);
      if (ok()) *out_ << '\n';
    }
  }
  template <class E>
    requires std::is_enum_v<E>
  void operator()(const char* name, E& value, E last) {
    if (ok()) Latch(ReadEnum(name, &value, last));
    if constexpr (kPrint) {
      if (ok()) Line(name) << static_cast<unsigned>(value) << '\n';
    }
  }
  /// Reads and checks the u32 layout version (CheckLayerVersion); returns
  /// it, or 0 once an error latched.
  std::uint32_t Version(const char* what, std::uint32_t newest) {
    std::uint32_t version = 0;
    if (ok()) Latch(reader_->ReadLayerVersion(what, newest, &version));
    if (!ok()) return 0;
    if constexpr (kPrint) Line("version") << version << '\n';
    return version;
  }
  template <class Body>
  void Section(const char* title, std::uint32_t tag, Body&& body) {
    if (ok()) Latch(reader_->EnterSection(tag));
    if (!ok()) return;
    if constexpr (kPrint) {
      Indent() << TagToString(tag).substr(1, 4) << ' ' << title << " ("
               << reader_->remaining() << " bytes):\n";
    }
    ++depth_;
    body();
    --depth_;
    if (ok()) Latch(reader_->ExitSection());
  }
  template <class Items, class Fields>
  void Each(const char* name, Items& items, Fields&& fields) {
    std::uint64_t count = 0;
    (*this)(name, count);
    // Every item takes at least one byte.
    if (ok() && count > reader_->remaining()) {
      Latch(Status::Invalid("corrupt " + std::string(name) + " count " +
                            std::to_string(count) + " in snapshot"));
    }
    items.clear();
    for (std::uint64_t i = 0; i < count && ok(); ++i) {
      if constexpr (kPrint) Indent() << '[' << i << "]\n";
      ++depth_;
      fields(*this, items.emplace_back());
      --depth_;
    }
  }

  /// Refuses bytes left in the innermost section: a section with no
  /// growth point ends at its last field, where Section would skip them.
  void End(const char* after) {
    if (ok() && reader_->remaining() != 0) {
      Latch(Status::Invalid(std::to_string(reader_->remaining()) +
                            " stray bytes after " + after));
    }
  }

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }
  /// Records `status` unless an earlier error already did.
  void Latch(Status status) {
    if (status_.ok() && !status.ok()) status_ = std::move(status);
  }
  Reader* reader() const { return reader_; }

  /// Starts a printed line at the current depth; Line() adds "name = ".
  std::ostream& Indent() { return *out_ << std::string(2 * depth_, ' '); }
  std::ostream& Line(const char* name) { return Indent() << name << " = "; }

 protected:
  FieldReader(Reader* reader, std::ostream* out)
      : reader_(reader), out_(out) {}

 private:
  template <class E>
  Status ReadEnum(const char* name, E* value, E last) {
    RS_ASSIGN_OR_RETURN(const std::uint8_t byte, reader_->ReadU8());
    if (byte > static_cast<std::uint8_t>(last)) {
      return Status::Invalid(
          "corrupt " + std::string(name) + " byte " + std::to_string(byte) +
          " in snapshot (the last valid value is " +
          std::to_string(static_cast<unsigned>(last)) + ")");
    }
    *value = static_cast<E>(byte);
    return Status::OK();
  }

  Reader* reader_;
  std::ostream* out_;
  std::size_t depth_ = 0;
  Status status_;
};

class Decoder : public FieldReader<false> {
 public:
  explicit Decoder(Reader* reader) : FieldReader(reader, nullptr) {}
};

class Printer : public FieldReader<true> {
 public:
  Printer(Reader* reader, std::ostream* out) : FieldReader(reader, out) {}
};

}  // namespace rs::persist
