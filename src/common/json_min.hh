/**
 * @file
 * Minimal recursive-descent JSON reader (and string escaper) shared
 * by the bench tooling and the evaluation service.
 *
 * Originally lived under bench/ and parsed only this repo's own
 * BENCH_*.json reports; the printedd daemon (src/service/) now
 * parses *untrusted network input* with it, so the reader is
 * hardened accordingly:
 *
 *   - a nesting-depth limit (maxDepth) bounds parser recursion, so
 *     a hostile "[[[[..." line cannot overflow the stack;
 *   - \uXXXX escapes handle UTF-16 surrogate pairs (4-byte UTF-8
 *     output) and reject unpaired surrogates;
 *   - trailing garbage after the document is rejected;
 *   - numbers whose magnitude overflows double parse as +/-infinity
 *     (strtod semantics) rather than failing — callers that cannot
 *     tolerate non-finite values must range-check, as JSON writers
 *     in this repo never emit them (non-finite renders as null).
 *
 * Covers enough of RFC 8259 for both uses: objects, arrays, strings
 * with escapes, numbers, true/false/null. Not a validator: it
 * accepts some malformed documents, but never mis-parses a
 * well-formed one.
 */

#ifndef PRINTED_COMMON_JSON_MIN_HH
#define PRINTED_COMMON_JSON_MIN_HH

#include <cctype>
#include <cstdlib>
#include <iomanip>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace printed::json
{

/**
 * Escape a string for embedding in a JSON document (RFC 8259):
 * backslash and double quote get a backslash prefix, control
 * characters (U+0000..U+001F) become \u00XX escapes, everything
 * else — including DEL and multi-byte UTF-8 — passes through
 * verbatim. Returns the escaped body *without* surrounding quotes.
 */
inline std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
            continue;
        }
        if (static_cast<unsigned char>(c) < 0x20) {
            std::ostringstream esc;
            esc << "\\u" << std::hex << std::setw(4)
                << std::setfill('0')
                << int(static_cast<unsigned char>(c));
            out += esc.str();
            continue;
        }
        out += c;
    }
    return out;
}

/** Escape and quote a JSON string literal. */
inline std::string
jsonQuote(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    out += '"';
    out += jsonEscape(s);
    out += '"';
    return out;
}

/** Parse failure, with a byte offset into the input. */
class ParseError : public std::runtime_error
{
  public:
    ParseError(const std::string &what, std::size_t offset)
        : std::runtime_error(what + " at byte " +
                             std::to_string(offset)),
          offset_(offset)
    {}

    std::size_t offset() const { return offset_; }

  private:
    std::size_t offset_;
};

/**
 * Maximum object/array nesting the parser accepts. Every real
 * document in this repo is < 10 deep; the limit only exists to
 * bound recursion on hostile input.
 */
inline constexpr std::size_t maxDepth = 128;

/** One parsed JSON value (a tagged tree). */
struct Value
{
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string string;
    std::vector<Value> array;
    /** Insertion-ordered object members. */
    std::vector<std::pair<std::string, Value>> object;

    bool isNull() const { return kind == Kind::Null; }
    bool isBool() const { return kind == Kind::Bool; }
    bool isNumber() const { return kind == Kind::Number; }
    bool isObject() const { return kind == Kind::Object; }
    bool isArray() const { return kind == Kind::Array; }
    bool isString() const { return kind == Kind::String; }

    /** Member lookup; nullptr when absent or not an object. */
    const Value *
    find(const std::string &key) const
    {
        for (const auto &m : object)
            if (m.first == key)
                return &m.second;
        return nullptr;
    }
};

namespace detail
{

class Parser
{
  public:
    explicit Parser(const std::string &text) : text_(text) {}

    Value
    parseDocument()
    {
        Value v = parseValue();
        skipWs();
        if (pos_ != text_.size())
            throw ParseError("trailing content", pos_);
        return v;
    }

  private:
    [[noreturn]] void
    fail(const std::string &what)
    {
        throw ParseError(what, pos_);
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    char
    peek()
    {
        if (pos_ >= text_.size())
            fail("unexpected end of input");
        return text_[pos_];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "'");
        ++pos_;
    }

    bool
    consumeWord(const char *w)
    {
        std::size_t n = 0;
        while (w[n])
            ++n;
        if (text_.compare(pos_, n, w) != 0)
            return false;
        pos_ += n;
        return true;
    }

    Value
    parseValue()
    {
        skipWs();
        switch (peek()) {
          case '{':
            return parseObject();
          case '[':
            return parseArray();
          case '"': {
            Value v;
            v.kind = Value::Kind::String;
            v.string = parseString();
            return v;
          }
          case 't':
            if (!consumeWord("true"))
                fail("bad literal");
            return makeBool(true);
          case 'f':
            if (!consumeWord("false"))
                fail("bad literal");
            return makeBool(false);
          case 'n':
            if (!consumeWord("null"))
                fail("bad literal");
            return Value{};
          default:
            return parseNumber();
        }
    }

    static Value
    makeBool(bool b)
    {
        Value v;
        v.kind = Value::Kind::Bool;
        v.boolean = b;
        return v;
    }

    /** RAII depth guard for the recursive containers. */
    struct DepthGuard
    {
        explicit DepthGuard(Parser &p) : parser(p)
        {
            if (++parser.depth_ > maxDepth)
                parser.fail("nesting too deep");
        }
        ~DepthGuard() { --parser.depth_; }
        Parser &parser;
    };

    Value
    parseObject()
    {
        DepthGuard guard(*this);
        Value v;
        v.kind = Value::Kind::Object;
        expect('{');
        skipWs();
        if (peek() == '}') {
            ++pos_;
            return v;
        }
        for (;;) {
            skipWs();
            std::string key = parseString();
            skipWs();
            expect(':');
            v.object.emplace_back(std::move(key), parseValue());
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect('}');
            return v;
        }
    }

    Value
    parseArray()
    {
        DepthGuard guard(*this);
        Value v;
        v.kind = Value::Kind::Array;
        expect('[');
        skipWs();
        if (peek() == ']') {
            ++pos_;
            return v;
        }
        for (;;) {
            v.array.push_back(parseValue());
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect(']');
            return v;
        }
    }

    /** Four hex digits of a \uXXXX escape (the \u is consumed). */
    unsigned
    parseHex4()
    {
        if (pos_ + 4 > text_.size())
            fail("truncated \\u escape");
        unsigned cp = 0;
        for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            cp <<= 4;
            if (h >= '0' && h <= '9')
                cp |= unsigned(h - '0');
            else if (h >= 'a' && h <= 'f')
                cp |= unsigned(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
                cp |= unsigned(h - 'A' + 10);
            else
                fail("bad \\u escape");
        }
        return cp;
    }

    void
    appendUtf8(std::string &out, unsigned cp)
    {
        if (cp < 0x80) {
            out += char(cp);
        } else if (cp < 0x800) {
            out += char(0xC0 | (cp >> 6));
            out += char(0x80 | (cp & 0x3F));
        } else if (cp < 0x10000) {
            out += char(0xE0 | (cp >> 12));
            out += char(0x80 | ((cp >> 6) & 0x3F));
            out += char(0x80 | (cp & 0x3F));
        } else {
            out += char(0xF0 | (cp >> 18));
            out += char(0x80 | ((cp >> 12) & 0x3F));
            out += char(0x80 | ((cp >> 6) & 0x3F));
            out += char(0x80 | (cp & 0x3F));
        }
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        for (;;) {
            if (pos_ >= text_.size())
                fail("unterminated string");
            const char c = text_[pos_++];
            if (c == '"')
                return out;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size())
                fail("unterminated escape");
            const char esc = text_[pos_++];
            switch (esc) {
              case '"':  out += '"';  break;
              case '\\': out += '\\'; break;
              case '/':  out += '/';  break;
              case 'b':  out += '\b'; break;
              case 'f':  out += '\f'; break;
              case 'n':  out += '\n'; break;
              case 'r':  out += '\r'; break;
              case 't':  out += '\t'; break;
              case 'u': {
                unsigned cp = parseHex4();
                if (cp >= 0xDC00 && cp <= 0xDFFF)
                    fail("unpaired low surrogate");
                if (cp >= 0xD800 && cp <= 0xDBFF) {
                    // High surrogate: a \uDC00..\uDFFF escape must
                    // follow, and the pair maps to one code point
                    // above U+FFFF (RFC 8259 section 7).
                    if (pos_ + 2 > text_.size() ||
                        text_[pos_] != '\\' || text_[pos_ + 1] != 'u')
                        fail("unpaired high surrogate");
                    pos_ += 2;
                    const unsigned lo = parseHex4();
                    if (lo < 0xDC00 || lo > 0xDFFF)
                        fail("unpaired high surrogate");
                    cp = 0x10000 + ((cp - 0xD800) << 10) +
                         (lo - 0xDC00);
                }
                appendUtf8(out, cp);
                break;
              }
              default:
                fail("bad escape");
            }
        }
    }

    Value
    parseNumber()
    {
        const std::size_t start = pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(
                    static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '-' || text_[pos_] == '+' ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E'))
            ++pos_;
        if (pos_ == start)
            fail("expected a value");
        const std::string tok = text_.substr(start, pos_ - start);
        char *end = nullptr;
        // Overflowing magnitudes saturate to +/-HUGE_VAL (infinity)
        // per strtod; see the header comment.
        const double v = std::strtod(tok.c_str(), &end);
        if (end != tok.c_str() + tok.size())
            throw ParseError("bad number '" + tok + "'", start);
        Value out;
        out.kind = Value::Kind::Number;
        out.number = v;
        return out;
    }

    const std::string &text_;
    std::size_t pos_ = 0;
    std::size_t depth_ = 0;
};

} // namespace detail

/** Parse one JSON document; throws ParseError on malformed input. */
inline Value
parse(const std::string &text)
{
    return detail::Parser(text).parseDocument();
}

namespace detail
{

/** Human-meaningful identity of an array element, if it has one. */
inline std::string
elementKey(const Value &v)
{
    if (!v.isObject())
        return "";
    for (const char *field :
         {"engine", "name", "label", "kernel", "design", "config",
          "core"}) {
        const Value *f = v.find(field);
        if (f && f->isString() && !f->string.empty())
            return f->string;
    }
    return "";
}

/** Visit every leaf of `v` (not object or array) with its path. */
template <typename Visit>
void
forEachLeaf(const Value &v, const std::string &prefix, Visit &visit)
{
    switch (v.kind) {
      case Value::Kind::Object:
        for (const auto &m : v.object)
            forEachLeaf(m.second,
                        prefix.empty() ? m.first
                                       : prefix + "." + m.first,
                        visit);
        break;
      case Value::Kind::Array:
        for (std::size_t i = 0; i < v.array.size(); ++i) {
            std::string key = elementKey(v.array[i]);
            if (key.empty())
                key = std::to_string(i);
            forEachLeaf(v.array[i], prefix + "." + key, visit);
        }
        break;
      default:
        visit(prefix.empty() ? std::string("value") : prefix, v);
        break;
    }
}

} // namespace detail

/**
 * Flatten every numeric leaf of a document into "a.b.c" -> value.
 * Array elements are keyed by their "engine"/"name"/"label"/...
 * string field when present (stable across runs even if the array
 * order changes), by index otherwise.
 */
inline std::map<std::string, double>
flattenNumbers(const Value &v)
{
    std::map<std::string, double> out;
    auto visit = [&out](const std::string &key, const Value &leaf) {
        if (leaf.kind == Value::Kind::Number)
            out[key] = leaf.number;
    };
    detail::forEachLeaf(v, "", visit);
    return out;
}

/** Every string leaf, keyed like flattenNumbers (e.g. fingerprints). */
inline std::map<std::string, std::string>
flattenStrings(const Value &v)
{
    std::map<std::string, std::string> out;
    auto visit = [&out](const std::string &key, const Value &leaf) {
        if (leaf.isString())
            out[key] = leaf.string;
    };
    detail::forEachLeaf(v, "", visit);
    return out;
}

} // namespace printed::json

#endif // PRINTED_COMMON_JSON_MIN_HH
