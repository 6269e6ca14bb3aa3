#include "io/json.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <stdexcept>

namespace qmcxx::io
{

std::string json_escape(std::string_view s)
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

std::string json_number(double v)
{
  if (!std::isfinite(v))
    return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// ---- reader ------------------------------------------------------------

JsonReader::JsonReader(const std::string& text, const char* kind, const std::string& origin)
    : s_(text), kind_(kind), origin_(origin)
{}

void JsonReader::fail(const std::string& what) const
{
  throw std::runtime_error(std::string(kind_) + " '" + origin_ + "': " + what + " at byte " +
                           std::to_string(pos_));
}

void JsonReader::skip_ws()
{
  while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_])) != 0)
    ++pos_;
}

char JsonReader::peek()
{
  skip_ws();
  if (pos_ >= s_.size())
    fail("unexpected end of input");
  return s_[pos_];
}

void JsonReader::expect(char c)
{
  if (peek() != c)
    fail(std::string("expected '") + c + "', found '" + s_[pos_] + "'");
  ++pos_;
}

bool JsonReader::consume_if(char c)
{
  skip_ws();
  if (pos_ < s_.size() && s_[pos_] == c)
  {
    ++pos_;
    return true;
  }
  return false;
}

bool JsonReader::at_end()
{
  skip_ws();
  return pos_ >= s_.size();
}

namespace
{

void append_utf8(std::string& out, unsigned cp)
{
  static constexpr unsigned lead[] = {0x00, 0xC0, 0xE0, 0xF0};
  const int tail = cp < 0x80 ? 0 : cp < 0x800 ? 1 : cp < 0x10000 ? 2 : 3;
  out += static_cast<char>(lead[tail] | (cp >> (6 * tail)));
  for (int k = tail - 1; k >= 0; --k)
    out += static_cast<char>(0x80 | ((cp >> (6 * k)) & 0x3F));
}

} // namespace

std::string JsonReader::string()
{
  expect('"');
  std::string out;
  while (true)
  {
    if (pos_ >= s_.size())
      fail("unterminated string");
    const char c = s_[pos_++];
    if (c == '"')
      return out;
    if (c == '\\')
    {
      if (pos_ >= s_.size())
        fail("unterminated escape");
      const char e = s_[pos_++];
      switch (e)
      {
      case '"': out += '"'; break;
      case '\\': out += '\\'; break;
      case '/': out += '/'; break;
      case 'b': out += '\b'; break;
      case 'f': out += '\f'; break;
      case 'n': out += '\n'; break;
      case 't': out += '\t'; break;
      case 'r': out += '\r'; break;
      case 'u': append_utf8(out, code_point()); break;
      default: fail(std::string("unsupported escape '\\") + e + "'");
      }
    }
    else
    {
      out += c;
    }
  }
}

/// The four hex digits of a `\u` escape.
unsigned JsonReader::hex4()
{
  unsigned v = 0;
  const char* first = s_.data() + pos_;
  const char* last = first + std::min<std::size_t>(4, s_.size() - pos_);
  const auto [end, ec] = std::from_chars(first, last, v, 16);
  if (ec != std::errc() || end != first + 4)
    fail("\\u escape needs four hex digits");
  pos_ += 4;
  return v;
}

/// Code point of a `\u` escape whose `\u` is consumed; a UTF-16
/// surrogate pair takes the following `\u` escape too.
unsigned JsonReader::code_point()
{
  const unsigned hi = hex4();
  if (hi >= 0xDC00 && hi <= 0xDFFF)
    fail("unpaired surrogate in \\u escape");
  if (hi < 0xD800 || hi > 0xDBFF)
    return hi;
  if (s_.compare(pos_, 2, "\\u") != 0)
    fail("unpaired surrogate in \\u escape");
  pos_ += 2;
  const unsigned lo = hex4();
  if (lo < 0xDC00 || lo > 0xDFFF)
    fail("unpaired surrogate in \\u escape");
  return 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
}

bool JsonReader::boolean()
{
  skip_ws();
  if (s_.compare(pos_, 4, "true") == 0)
  {
    pos_ += 4;
    return true;
  }
  if (s_.compare(pos_, 5, "false") == 0)
  {
    pos_ += 5;
    return false;
  }
  fail("expected true or false");
}

std::string JsonReader::number_token()
{
  skip_ws();
  const std::size_t start = pos_;
  while (pos_ < s_.size() &&
         (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 || s_[pos_] == '-' ||
          s_[pos_] == '+' || s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E'))
    ++pos_;
  if (pos_ == start)
    fail("expected a number");
  return s_.substr(start, pos_ - start);
}

double JsonReader::number()
{
  const std::string tok = number_token();
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(tok.c_str(), &end);
  if (errno != 0 || end != tok.c_str() + tok.size())
    fail("malformed number '" + tok + "'");
  return v;
}

int JsonReader::integer()
{
  const std::string tok = number_token();
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(tok.c_str(), &end, 10);
  if (end != tok.c_str() + tok.size())
    fail("expected an integer, got '" + tok + "'");
  if (errno == ERANGE || v < std::numeric_limits<int>::min() ||
      v > std::numeric_limits<int>::max())
    fail("integer " + tok + " is outside the int range");
  return static_cast<int>(v);
}

std::uint64_t JsonReader::uint64()
{
  const std::string tok = number_token();
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(tok.c_str(), &end, 10);
  if (errno != 0 || end != tok.c_str() + tok.size() || tok.find('-') != std::string::npos)
    fail("expected an unsigned 64-bit integer, got '" + tok + "'");
  return v;
}

// ---- writer ------------------------------------------------------------

JsonWriter& JsonWriter::token(std::string_view t)
{
  if (need_comma_)
    out_ += ", ";
  out_ += t;
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::open(char c)
{
  token(std::string_view(&c, 1));
  need_comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::close(char c)
{
  out_ += c;
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view k)
{
  token('"' + json_escape(k) + "\": ");
  need_comma_ = false;
  return *this;
}

// ---- JSONL sink ----------------------------------------------------------

JsonlWriter::JsonlWriter(const std::string& path) : out_(path, std::ios::app)
{
  if (!out_)
    throw std::runtime_error("cannot open stream log '" + path + "' for append");
}

void JsonlWriter::append(const std::string& line)
{
  out_ << line << '\n';
  out_.flush();
}

} // namespace qmcxx::io
