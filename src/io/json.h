// The one JSON layer: a reader for the job and system-spec schemas
// (job_spec.h), a writer for every record and file qmcxx emits, and the
// JSONL sink the serving path streams into.
#ifndef QMCXX_IO_JSON_H
#define QMCXX_IO_JSON_H

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <string>
#include <string_view>
#include <type_traits>

namespace qmcxx::io
{

/// Body of a JSON string literal holding `s`: `"` and `\` are
/// backslash-escaped and every byte below 0x20 becomes its short escape
/// (\b \f \n \r \t) or \u00XX, so any job or system name -- a spool
/// file stem can hold quotes and control bytes -- stays one valid JSON
/// string. Bytes from 0x20 up pass through unchanged.
[[nodiscard]] std::string json_escape(std::string_view s);

/// `v` at 17 significant digits (%.17g), which round-trips every finite
/// double bitwise; "null" for NaN and +-inf.
[[nodiscard]] std::string json_number(double v);

/// Recursive-descent reader over one JSON text. It builds no value tree:
/// the caller reads every member by its known type, so an unknown key
/// fails by name instead of being skipped, and a parse allocates only
/// the strings and vectors it fills. Errors throw std::runtime_error as
/// "<kind> '<origin>': <what> at byte N".
class JsonReader
{
public:
  /// `text`, `kind` ("job", "spec") and `origin` (job id, file path)
  /// must outlive the reader.
  JsonReader(const std::string& text, const char* kind, const std::string& origin);

  [[noreturn]] void fail(const std::string& what) const;

  void expect(char c);
  bool consume_if(char c);
  /// True when only whitespace is left.
  bool at_end();

  std::string string();
  bool boolean();
  double number();
  /// An integer in the int range; anything outside it is an error, never
  /// a wrapped value.
  int integer();
  /// Seeds are full 64-bit values; going through double would round
  /// anything above 2^53 and silently fork the RNG streams.
  std::uint64_t uint64();

  /// Read an object: `on_key(key)` runs once per member, after its ':',
  /// and must read the member's value. `{}` calls it never.
  template<typename OnKey>
  void object(OnKey&& on_key)
  {
    expect('{');
    if (consume_if('}'))
      return;
    do
    {
      const std::string key = string();
      expect(':');
      on_key(key);
    } while (consume_if(','));
    expect('}');
  }

  /// Read an array: `element(k)` reads its k-th element. Returns the
  /// element count (0 for `[]`).
  template<typename Element>
  std::size_t array(Element&& element)
  {
    expect('[');
    std::size_t n = 0;
    if (consume_if(']'))
      return n;
    do
      element(n++);
    while (consume_if(','));
    expect(']');
    return n;
  }

private:
  void skip_ws();
  char peek();
  std::string number_token();
  unsigned hex4();
  unsigned code_point();

  const std::string& s_;
  std::size_t pos_ = 0;
  const char* kind_;
  const std::string& origin_;
};

/// Builds one JSON value as text in one style, {"k": v, "a": [1, 2]}:
/// ": " after a key and ", " between items. Doubles print through
/// json_number and every string and key through json_escape. The writer
/// places separators only; it does not check that containers close.
class JsonWriter
{
public:
  JsonWriter& begin_object() { return open('{'); }
  JsonWriter& end_object() { return close('}'); }
  JsonWriter& begin_array() { return open('['); }
  JsonWriter& end_array() { return close(']'); }

  /// Member name; the next value, object or array is its value.
  JsonWriter& key(std::string_view k);

  JsonWriter& value(double v) { return token(json_number(v)); }
  JsonWriter& value(bool v) { return token(v ? "true" : "false"); }
  JsonWriter& value(std::string_view v) { return token('"' + json_escape(v) + '"'); }
  /// A string literal would otherwise convert to bool, not to string_view.
  JsonWriter& value(const char* v) { return value(std::string_view(v)); }
  template<typename Int>
    requires(std::is_integral_v<Int> && !std::is_same_v<Int, bool>)
  JsonWriter& value(Int v)
  {
    return token(std::to_string(v));
  }

  template<typename T>
  JsonWriter& field(std::string_view k, const T& v)
  {
    return key(k).value(v);
  }

  [[nodiscard]] const std::string& str() const { return out_; }

private:
  /// Append `t` after the separator its position needs.
  JsonWriter& token(std::string_view t);
  JsonWriter& open(char c);
  JsonWriter& close(char c);

  std::string out_;
  bool need_comma_ = false; ///< an item precedes the next one in its container
};

/// Append-mode JSONL sink: one record per line, flushed per append, so a
/// consumer tailing the stream -- or a resume cutting it back -- always
/// sees whole records. The per-line flush bounds data loss on SIGKILL to
/// the current record.
class JsonlWriter
{
public:
  explicit JsonlWriter(const std::string& path);
  void append(const std::string& line);

private:
  std::ofstream out_;
};

} // namespace qmcxx::io

#endif
