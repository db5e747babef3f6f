/**
 * @file
 * JSON value model and strict bounded parser implementation.
 */

#include "serve/json.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/error.h"
#include "common/json.h"

namespace ufc {
namespace serve {

JsonValue
JsonValue::makeBool(bool b)
{
    JsonValue v;
    v.type_ = Type::Bool;
    v.b_ = b;
    return v;
}

JsonValue
JsonValue::makeInt(i64 i)
{
    JsonValue v;
    v.type_ = Type::Int;
    v.i_ = i;
    v.d_ = static_cast<double>(i);
    return v;
}

JsonValue
JsonValue::makeDouble(double d)
{
    JsonValue v;
    v.type_ = Type::Double;
    v.d_ = d;
    return v;
}

JsonValue
JsonValue::makeString(std::string s)
{
    JsonValue v;
    v.type_ = Type::String;
    v.s_ = std::move(s);
    return v;
}

JsonValue
JsonValue::makeArray()
{
    JsonValue v;
    v.type_ = Type::Array;
    return v;
}

JsonValue
JsonValue::makeObject()
{
    JsonValue v;
    v.type_ = Type::Object;
    return v;
}

bool
JsonValue::asBool() const
{
    UFC_EXPECT(type_ == Type::Bool, ConfigError,
               "json: expected bool");
    return b_;
}

i64
JsonValue::asInt() const
{
    if (type_ == Type::Int)
        return i_;
    if (type_ == Type::Double) {
        UFC_EXPECT(std::nearbyint(d_) == d_, ConfigError,
                   "json: expected integer, got " << d_);
        return static_cast<i64>(d_);
    }
    UFC_THROW(ConfigError, "json: expected number");
}

double
JsonValue::asDouble() const
{
    UFC_EXPECT(isNumber(), ConfigError, "json: expected number");
    return type_ == Type::Int ? static_cast<double>(i_) : d_;
}

const std::string &
JsonValue::asString() const
{
    UFC_EXPECT(type_ == Type::String, ConfigError,
               "json: expected string");
    return s_;
}

const std::vector<JsonValue> &
JsonValue::asArray() const
{
    UFC_EXPECT(type_ == Type::Array, ConfigError, "json: expected array");
    return arr_;
}

const std::vector<std::pair<std::string, JsonValue>> &
JsonValue::asObject() const
{
    UFC_EXPECT(type_ == Type::Object, ConfigError,
               "json: expected object");
    return obj_;
}

const JsonValue *
JsonValue::find(const std::string &key) const
{
    if (type_ != Type::Object)
        return nullptr;
    for (const auto &kv : obj_)
        if (kv.first == key)
            return &kv.second;
    return nullptr;
}

std::string
JsonValue::getString(const std::string &key, const std::string &dflt) const
{
    const JsonValue *v = find(key);
    if (!v || v->isNull())
        return dflt;
    UFC_EXPECT(v->isString(), ConfigError,
               "json: field '" << key << "' must be a string");
    return v->s_;
}

i64
JsonValue::getInt(const std::string &key, i64 dflt) const
{
    const JsonValue *v = find(key);
    if (!v || v->isNull())
        return dflt;
    UFC_EXPECT(v->isNumber(), ConfigError,
               "json: field '" << key << "' must be a number");
    return v->asInt();
}

double
JsonValue::getDouble(const std::string &key, double dflt) const
{
    const JsonValue *v = find(key);
    if (!v || v->isNull())
        return dflt;
    UFC_EXPECT(v->isNumber(), ConfigError,
               "json: field '" << key << "' must be a number");
    return v->asDouble();
}

bool
JsonValue::getBool(const std::string &key, bool dflt) const
{
    const JsonValue *v = find(key);
    if (!v || v->isNull())
        return dflt;
    UFC_EXPECT(v->isBool(), ConfigError,
               "json: field '" << key << "' must be a bool");
    return v->b_;
}

void
JsonValue::set(const std::string &key, JsonValue v)
{
    if (type_ == Type::Null)
        type_ = Type::Object;
    UFC_EXPECT(type_ == Type::Object, ConfigError,
               "json: set() on a non-object");
    for (auto &kv : obj_) {
        if (kv.first == key) {
            kv.second = std::move(v);
            return;
        }
    }
    obj_.emplace_back(key, std::move(v));
}

void
JsonValue::push(JsonValue v)
{
    if (type_ == Type::Null)
        type_ = Type::Array;
    UFC_EXPECT(type_ == Type::Array, ConfigError,
               "json: push() on a non-array");
    arr_.push_back(std::move(v));
}

std::string
JsonValue::dump() const
{
    switch (type_) {
      case Type::Null: return "null";
      case Type::Bool: return b_ ? "true" : "false";
      case Type::Int: return std::to_string(i_);
      case Type::Double: return json::number(d_);
      case Type::String: return json::quote(s_);
      case Type::Array: {
        std::string out = "[";
        for (std::size_t i = 0; i < arr_.size(); ++i) {
            if (i)
                out += ",";
            out += arr_[i].dump();
        }
        return out + "]";
      }
      case Type::Object: {
        std::string out = "{";
        for (std::size_t i = 0; i < obj_.size(); ++i) {
            if (i)
                out += ",";
            out += json::quote(obj_[i].first) + ":" +
                   obj_[i].second.dump();
        }
        return out + "}";
      }
    }
    return "null";
}

namespace {

/** Strict parser over a fixed byte range; every read bounds-checked. */
class Parser
{
  public:
    explicit Parser(const std::string &text) : s_(text) {}

    JsonValue
    parseDocument()
    {
        JsonValue v = parseValue(0);
        skipWs();
        UFC_EXPECT(pos_ == s_.size(), ConfigError,
                   "json: trailing garbage at offset " << pos_);
        return v;
    }

  private:
    [[noreturn]] void
    fail(const char *what) const
    {
        UFC_THROW(ConfigError,
                  "json: " << what << " at offset " << pos_);
    }

    bool atEnd() const { return pos_ >= s_.size(); }

    char
    peek() const
    {
        if (atEnd())
            UFC_THROW(ConfigError, "json: unexpected end of input");
        return s_[pos_];
    }

    char
    next()
    {
        const char c = peek();
        ++pos_;
        return c;
    }

    void
    skipWs()
    {
        while (!atEnd()) {
            const char c = s_[pos_];
            if (c != ' ' && c != '\t' && c != '\n' && c != '\r')
                break;
            ++pos_;
        }
    }

    void
    expectLiteral(const char *lit)
    {
        for (const char *p = lit; *p; ++p)
            if (atEnd() || s_[pos_++] != *p)
                fail("bad literal");
    }

    void
    appendUtf8(std::string &out, u32 cp)
    {
        if (cp < 0x80) {
            out += static_cast<char>(cp);
        } else if (cp < 0x800) {
            out += static_cast<char>(0xC0 | (cp >> 6));
            out += static_cast<char>(0x80 | (cp & 0x3F));
        } else if (cp < 0x10000) {
            out += static_cast<char>(0xE0 | (cp >> 12));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (cp & 0x3F));
        } else {
            out += static_cast<char>(0xF0 | (cp >> 18));
            out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (cp & 0x3F));
        }
    }

    u32
    parseHex4()
    {
        u32 v = 0;
        for (int i = 0; i < 4; ++i) {
            const char c = next();
            v <<= 4;
            if (c >= '0' && c <= '9')
                v |= static_cast<u32>(c - '0');
            else if (c >= 'a' && c <= 'f')
                v |= static_cast<u32>(c - 'a' + 10);
            else if (c >= 'A' && c <= 'F')
                v |= static_cast<u32>(c - 'A' + 10);
            else
                fail("bad \\u escape");
        }
        return v;
    }

    std::string
    parseString()
    {
        // Caller consumed the opening quote.
        std::string out;
        for (;;) {
            const char c = next();
            if (c == '"')
                return out;
            if (static_cast<unsigned char>(c) < 0x20)
                fail("raw control character in string");
            if (c != '\\') {
                out += c;
                continue;
            }
            const char e = next();
            switch (e) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
              case 'u': {
                u32 cp = parseHex4();
                if (cp >= 0xD800 && cp <= 0xDBFF) {
                    // High surrogate: a \uDC00-\uDFFF low half must
                    // follow.
                    if (atEnd() || next() != '\\' || next() != 'u')
                        fail("unpaired surrogate");
                    const u32 lo = parseHex4();
                    if (lo < 0xDC00 || lo > 0xDFFF)
                        fail("bad low surrogate");
                    cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
                    fail("unpaired surrogate");
                }
                appendUtf8(out, cp);
                break;
              }
              default: fail("bad escape");
            }
        }
    }

    JsonValue
    parseNumber()
    {
        const std::size_t start = pos_;
        if (peek() == '-')
            ++pos_;
        while (!atEnd() && s_[pos_] >= '0' && s_[pos_] <= '9')
            ++pos_;
        bool isInt = true;
        if (!atEnd() && s_[pos_] == '.') {
            isInt = false;
            ++pos_;
            while (!atEnd() && s_[pos_] >= '0' && s_[pos_] <= '9')
                ++pos_;
        }
        if (!atEnd() && (s_[pos_] == 'e' || s_[pos_] == 'E')) {
            isInt = false;
            ++pos_;
            if (!atEnd() && (s_[pos_] == '+' || s_[pos_] == '-'))
                ++pos_;
            while (!atEnd() && s_[pos_] >= '0' && s_[pos_] <= '9')
                ++pos_;
        }
        const std::string tok = s_.substr(start, pos_ - start);
        UFC_EXPECT(!tok.empty() && tok != "-", ConfigError,
                   "json: bad number at offset " << start);
        if (isInt) {
            errno = 0;
            char *end = nullptr;
            const long long v = std::strtoll(tok.c_str(), &end, 10);
            if (errno == 0 && end && *end == '\0')
                return JsonValue::makeInt(static_cast<i64>(v));
            // Out-of-range integer: fall through to double.
        }
        errno = 0;
        char *end = nullptr;
        const double d = std::strtod(tok.c_str(), &end);
        UFC_EXPECT(end && *end == '\0' && std::isfinite(d), ConfigError,
                   "json: bad number at offset " << start);
        return JsonValue::makeDouble(d);
    }

    JsonValue
    parseValue(int depth)
    {
        UFC_EXPECT(depth < kJsonMaxDepth, ConfigError,
                   "json: nesting deeper than " << kJsonMaxDepth);
        skipWs();
        const char c = peek();
        switch (c) {
          case '{': {
            ++pos_;
            JsonValue obj = JsonValue::makeObject();
            skipWs();
            if (peek() == '}') {
                ++pos_;
                return obj;
            }
            for (;;) {
                skipWs();
                if (next() != '"')
                    fail("expected object key");
                std::string key = parseString();
                skipWs();
                if (next() != ':')
                    fail("expected ':'");
                obj.set(key, parseValue(depth + 1));
                skipWs();
                const char sep = next();
                if (sep == '}')
                    return obj;
                if (sep != ',')
                    fail("expected ',' or '}'");
            }
          }
          case '[': {
            ++pos_;
            JsonValue arr = JsonValue::makeArray();
            skipWs();
            if (peek() == ']') {
                ++pos_;
                return arr;
            }
            for (;;) {
                arr.push(parseValue(depth + 1));
                skipWs();
                const char sep = next();
                if (sep == ']')
                    return arr;
                if (sep != ',')
                    fail("expected ',' or ']'");
            }
          }
          case '"': ++pos_; return JsonValue::makeString(parseString());
          case 't': expectLiteral("true"); return JsonValue::makeBool(true);
          case 'f':
            expectLiteral("false");
            return JsonValue::makeBool(false);
          case 'n': expectLiteral("null"); return JsonValue();
          default:
            if (c == '-' || (c >= '0' && c <= '9'))
                return parseNumber();
            fail("unexpected character");
        }
    }

    const std::string &s_;
    std::size_t pos_ = 0;
};

} // namespace

JsonValue
parseJson(const std::string &text)
{
    Parser p(text);
    return p.parseDocument();
}

} // namespace serve
} // namespace ufc
