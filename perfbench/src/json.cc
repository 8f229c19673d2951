#include "json.h"

#include <cstdlib>

namespace perfbench {

const Json* Json::Find(const std::string& key) const {
  if (kind != Kind::kObject) return nullptr;
  auto it = object.find(key);
  return it == object.end() ? nullptr : &it->second;
}

double Json::Num(const std::string& key, double fallback) const {
  const Json* v = Find(key);
  return v != nullptr && v->kind == Kind::kNumber ? v->number : fallback;
}

std::string Json::Str(const std::string& key) const {
  const Json* v = Find(key);
  return v != nullptr && v->kind == Kind::kString ? v->string : std::string();
}

bool Json::Bool(const std::string& key) const {
  const Json* v = Find(key);
  return v != nullptr && v->kind == Kind::kBool && v->boolean;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : s_(text) {}

  bool ParseValue(Json* out, int depth) {
    if (depth > 64) return false;
    SkipSpace();
    if (pos_ >= s_.size()) return false;
    const char c = s_[pos_];
    if (c == '{') return ParseObject(out, depth);
    if (c == '[') return ParseArray(out, depth);
    if (c == '"') {
      out->kind = Json::Kind::kString;
      return ParseString(&out->string);
    }
    if (Literal("true")) {
      out->kind = Json::Kind::kBool;
      out->boolean = true;
      return true;
    }
    if (Literal("false")) {
      out->kind = Json::Kind::kBool;
      return true;
    }
    if (Literal("null")) return true;
    return ParseNumber(out);
  }

  bool AtEnd() {
    SkipSpace();
    return pos_ == s_.size();
  }

 private:
  void SkipSpace() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Literal(std::string_view word) {
    if (s_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  bool ParseNumber(Json* out) {
    size_t end = pos_;
    while (end < s_.size() &&
           std::string_view("+-0123456789.eE").find(s_[end]) !=
               std::string_view::npos) {
      ++end;
    }
    if (end == pos_) return false;
    const std::string token(s_.substr(pos_, end - pos_));
    char* stop = nullptr;
    out->number = std::strtod(token.c_str(), &stop);
    if (stop != token.c_str() + token.size()) return false;
    out->kind = Json::Kind::kNumber;
    pos_ = end;
    return true;
  }

  bool ParseString(std::string* out) {
    ++pos_;  // opening quote
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= s_.size()) return false;
      const char e = s_[pos_++];
      switch (e) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > s_.size()) return false;
          const unsigned long cp =
              std::strtoul(std::string(s_.substr(pos_, 4)).c_str(), nullptr,
                           16);
          pos_ += 4;
          // The checks only compare ASCII labels; keep other code points
          // as a placeholder byte.
          out->push_back(cp < 0x80 ? static_cast<char>(cp) : '?');
          break;
        }
        default:
          return false;
      }
    }
    return false;
  }

  bool ParseArray(Json* out, int depth) {
    out->kind = Json::Kind::kArray;
    ++pos_;
    SkipSpace();
    if (pos_ < s_.size() && s_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      Json item;
      if (!ParseValue(&item, depth + 1)) return false;
      out->array.push_back(std::move(item));
      SkipSpace();
      if (pos_ >= s_.size()) return false;
      if (s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (s_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool ParseObject(Json* out, int depth) {
    out->kind = Json::Kind::kObject;
    ++pos_;
    SkipSpace();
    if (pos_ < s_.size() && s_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipSpace();
      if (pos_ >= s_.size() || s_[pos_] != '"') return false;
      std::string key;
      if (!ParseString(&key)) return false;
      SkipSpace();
      if (pos_ >= s_.size() || s_[pos_] != ':') return false;
      ++pos_;
      Json value;
      if (!ParseValue(&value, depth + 1)) return false;
      out->object[std::move(key)] = std::move(value);
      SkipSpace();
      if (pos_ >= s_.size()) return false;
      if (s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (s_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  std::string_view s_;
  size_t pos_ = 0;
};

}  // namespace

std::optional<Json> ParseJson(std::string_view text) {
  Parser parser(text);
  Json out;
  if (!parser.ParseValue(&out, 0) || !parser.AtEnd()) return std::nullopt;
  return out;
}

}  // namespace perfbench
