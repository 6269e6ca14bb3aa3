// Line-oriented JSON (JSONL) streaming for the serving path: one
// self-contained JSON record per line, flushed per append so a consumer
// tailing the stream -- or a post-crash resume comparing observables --
// always sees whole records. Records follow the qmcxx-bench-v1
// convention of flat key/value objects.
#ifndef QMCXX_IO_STREAM_LOG_H
#define QMCXX_IO_STREAM_LOG_H

#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>

namespace qmcxx::io
{

/// Append-mode JSONL sink. Append is atomic per line at the libc level
/// for the short records written here, and the per-line flush bounds
/// data loss on SIGKILL to the current record.
class JsonlWriter
{
public:
  explicit JsonlWriter(const std::string& path) : out_(path, std::ios::app)
  {
    if (!out_)
      throw std::runtime_error("cannot open stream log '" + path + "' for append");
  }

  void append(const std::string& line)
  {
    out_ << line << '\n';
    out_.flush();
  }

private:
  std::ofstream out_;
};

/// Shortest round-trippable decimal form of a double (%.17g), so the
/// streamed observables compare bitwise across an interrupt/resume.
inline std::string json_number(double v)
{
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Body of a JSON string literal holding `s`: `"` and `\` are
/// backslash-escaped and every byte below 0x20 becomes its short escape
/// (\b \f \n \r \t) or \u00XX, so any job or system name -- a spool
/// file stem can hold quotes and control bytes -- stays one valid JSON
/// string. Bytes from 0x20 up pass through unchanged.
inline std::string json_escape(const std::string& s)
{
  std::string out;
  out.reserve(s.size());
  for (const char c : s)
  {
    switch (c)
    {
    case '"': out += "\\\""; break;
    case '\\': out += "\\\\"; break;
    case '\b': out += "\\b"; break;
    case '\f': out += "\\f"; break;
    case '\n': out += "\\n"; break;
    case '\r': out += "\\r"; break;
    case '\t': out += "\\t"; break;
    default:
      if (static_cast<unsigned char>(c) < 0x20)
      {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
        out += buf;
      }
      else
      {
        out += c;
      }
    }
  }
  return out;
}

} // namespace qmcxx::io

#endif
