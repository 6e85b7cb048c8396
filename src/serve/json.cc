#include "serve/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/stringutil.h"

namespace kdsel::serve {

namespace {

constexpr int kMaxDepth = 64;

/// Recursive-descent parser over a raw character range.
class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  StatusOr<Json> ParseDocument() {
    SkipWhitespace();
    KDSEL_ASSIGN_OR_RETURN(Json value, ParseValue(0));
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after JSON document");
    }
    return value;
  }

 private:
  Status Error(const std::string& what) const {
    return Status::InvalidArgument("json: " + what + " at offset " +
                                   std::to_string(pos_));
  }

  bool AtEnd() const { return pos_ >= text_.size(); }
  char Peek() const { return text_[pos_]; }

  void SkipWhitespace() {
    while (!AtEnd() && (Peek() == ' ' || Peek() == '\t' || Peek() == '\n' ||
                        Peek() == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (AtEnd() || Peek() != c) return false;
    ++pos_;
    return true;
  }

  bool ConsumeLiteral(const char* literal) {
    size_t n = 0;
    while (literal[n] != '\0') ++n;
    if (text_.compare(pos_, n, literal) != 0) return false;
    pos_ += n;
    return true;
  }

  StatusOr<Json> ParseValue(int depth) {
    if (depth > kMaxDepth) return Error("nesting too deep");
    if (AtEnd()) return Error("unexpected end of input");
    switch (Peek()) {
      case '{':
        return ParseObject(depth);
      case '[':
        return ParseArray(depth);
      case '"': {
        KDSEL_ASSIGN_OR_RETURN(std::string s, ParseString());
        return Json::Str(std::move(s));
      }
      case 't':
        if (ConsumeLiteral("true")) return Json::Bool(true);
        return Error("invalid literal");
      case 'f':
        if (ConsumeLiteral("false")) return Json::Bool(false);
        return Error("invalid literal");
      case 'n':
        if (ConsumeLiteral("null")) return Json::Null();
        return Error("invalid literal");
      default:
        return ParseNumber();
    }
  }

  StatusOr<Json> ParseObject(int depth) {
    Consume('{');
    Json obj = Json::Object();
    SkipWhitespace();
    if (Consume('}')) return obj;
    while (true) {
      SkipWhitespace();
      if (AtEnd() || Peek() != '"') return Error("expected object key");
      KDSEL_ASSIGN_OR_RETURN(std::string key, ParseString());
      SkipWhitespace();
      if (!Consume(':')) return Error("expected ':'");
      SkipWhitespace();
      KDSEL_ASSIGN_OR_RETURN(Json value, ParseValue(depth + 1));
      obj.Set(key, std::move(value));
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume('}')) return obj;
      return Error("expected ',' or '}'");
    }
  }

  StatusOr<Json> ParseArray(int depth) {
    Consume('[');
    Json arr = Json::Array();
    SkipWhitespace();
    if (Consume(']')) return arr;
    while (true) {
      SkipWhitespace();
      KDSEL_ASSIGN_OR_RETURN(Json value, ParseValue(depth + 1));
      arr.Append(std::move(value));
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume(']')) return arr;
      return Error("expected ',' or ']'");
    }
  }

  StatusOr<std::string> ParseString() {
    Consume('"');
    std::string out;
    while (true) {
      if (AtEnd()) return Error("unterminated string");
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (AtEnd()) return Error("unterminated escape");
      char e = text_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9')
              code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              code |= static_cast<unsigned>(h - 'A' + 10);
            else
              return Error("bad \\u escape");
          }
          // UTF-8 encode the code point (BMP only; surrogate pairs are
          // passed through as two 3-byte sequences, fine for metadata).
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          return Error("unknown escape");
      }
    }
  }

  StatusOr<Json> ParseNumber() {
    const size_t begin = pos_;
    if (!AtEnd() && (Peek() == '-' || Peek() == '+')) ++pos_;
    while (!AtEnd() && (std::isdigit(static_cast<unsigned char>(Peek())) ||
                        Peek() == '.' || Peek() == 'e' || Peek() == 'E' ||
                        Peek() == '-' || Peek() == '+')) {
      ++pos_;
    }
    if (pos_ == begin) return Error("invalid value");
    const std::string token = text_.substr(begin, pos_ - begin);
    auto v = ParseDouble(token);
    if (!v.ok()) return Error("invalid number '" + token + "'");
    return Json::Number(*v);
  }

  const std::string& text_;
  size_t pos_ = 0;
};

void AppendNumber(std::string& out, double v) {
  if (!std::isfinite(v)) {  // JSON has no NaN/Inf; emit null.
    out += "null";
    return;
  }
  if (v == static_cast<double>(static_cast<long long>(v)) &&
      std::fabs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    out += buf;
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

}  // namespace

Json Json::Bool(bool v) {
  Json j;
  j.type_ = Type::kBool;
  j.bool_ = v;
  return j;
}

Json Json::Number(double v) {
  Json j;
  j.type_ = Type::kNumber;
  j.number_ = v;
  return j;
}

Json Json::Str(std::string v) {
  Json j;
  j.type_ = Type::kString;
  j.string_ = std::move(v);
  return j;
}

Json Json::Array() {
  Json j;
  j.type_ = Type::kArray;
  return j;
}

Json Json::Object() {
  Json j;
  j.type_ = Type::kObject;
  return j;
}

const Json* Json::Find(const std::string& key) const {
  if (type_ != Type::kObject) return nullptr;
  auto it = members_.find(key);
  return it == members_.end() ? nullptr : &it->second;
}

double Json::GetNumber(const std::string& key, double fallback) const {
  const Json* v = Find(key);
  return (v != nullptr && v->is_number()) ? v->as_number() : fallback;
}

bool Json::GetBool(const std::string& key, bool fallback) const {
  const Json* v = Find(key);
  return (v != nullptr && v->is_bool()) ? v->as_bool() : fallback;
}

std::string Json::GetString(const std::string& key,
                            const std::string& fallback) const {
  const Json* v = Find(key);
  return (v != nullptr && v->is_string()) ? v->as_string() : fallback;
}

std::string Json::Dump() const {
  std::string out;
  switch (type_) {
    case Type::kNull:
      out = "null";
      break;
    case Type::kBool:
      out = bool_ ? "true" : "false";
      break;
    case Type::kNumber:
      AppendNumber(out, number_);
      break;
    case Type::kString:
      AppendJsonString(out, string_);
      break;
    case Type::kArray: {
      out.push_back('[');
      bool first = true;
      for (const Json& item : items_) {
        if (!first) out.push_back(',');
        first = false;
        out += item.Dump();
      }
      out.push_back(']');
      break;
    }
    case Type::kObject: {
      out.push_back('{');
      bool first = true;
      for (const auto& [key, value] : members_) {
        if (!first) out.push_back(',');
        first = false;
        AppendJsonString(out, key);
        out.push_back(':');
        out += value.Dump();
      }
      out.push_back('}');
      break;
    }
  }
  return out;
}

StatusOr<Json> Json::Parse(const std::string& text) {
  Parser parser(text);
  return parser.ParseDocument();
}

void AppendJsonString(std::string& out, const std::string& text) {
  out.push_back('"');
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void AppendJsonFloatArray(std::string& out, const std::vector<float>& values) {
  out.push_back('[');
  char buf[40];
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out.push_back(',');
    if (std::isfinite(values[i])) {
      std::snprintf(buf, sizeof(buf), "%.9g", static_cast<double>(values[i]));
      out += buf;
    } else {
      out += "null";
    }
  }
  out.push_back(']');
}

}  // namespace kdsel::serve
