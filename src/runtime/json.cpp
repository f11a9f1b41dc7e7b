#include "runtime/json.hpp"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string_view>

namespace orianna::runtime::json {

const Value *
Value::field(const std::string &key) const
{
    if (kind != Kind::Object)
        return nullptr;
    auto it = fields.find(key);
    return it == fields.end() ? nullptr : it->second.get();
}

namespace {

class Parser
{
  public:
    explicit Parser(const std::string &input) : input_(input) {}

    ValuePtr
    parse()
    {
        ValuePtr value = parseValue();
        skipSpace();
        if (pos_ != input_.size())
            fail("trailing characters");
        return value;
    }

  private:
    [[noreturn]] void
    fail(const std::string &what) const
    {
        throw std::runtime_error(what + " at byte " +
                                 std::to_string(pos_));
    }

    void
    skipSpace()
    {
        while (pos_ < input_.size() &&
               std::isspace(static_cast<unsigned char>(input_[pos_])))
            ++pos_;
    }

    char
    peek()
    {
        skipSpace();
        if (pos_ >= input_.size())
            fail("unexpected end of input");
        return input_[pos_];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "'");
        ++pos_;
    }

    bool
    consume(const std::string &word)
    {
        skipSpace();
        if (input_.compare(pos_, word.size(), word) != 0)
            return false;
        pos_ += word.size();
        return true;
    }

    ValuePtr
    parseValue(std::size_t depth = 0)
    {
        const char c = peek();
        // Bounded recursion: a hostile line fails like any malformed
        // one instead of overflowing the stack.
        if ((c == '{' || c == '[') && depth == kMaxDepth)
            fail("containers nested deeper than " +
                 std::to_string(kMaxDepth));
        auto value = std::make_shared<Value>();
        if (c == '{') {
            value->kind = Value::Kind::Object;
            ++pos_;
            if (peek() == '}') {
                ++pos_;
                return value;
            }
            while (true) {
                const std::string key = parseString();
                expect(':');
                // Duplicate keys: last one wins, like every tolerant
                // reader — a request is never rejected for it.
                value->fields[key] = parseValue(depth + 1);
                if (peek() == ',') {
                    ++pos_;
                    continue;
                }
                expect('}');
                return value;
            }
        }
        if (c == '[') {
            value->kind = Value::Kind::Array;
            ++pos_;
            if (peek() == ']') {
                ++pos_;
                return value;
            }
            while (true) {
                value->items.push_back(parseValue(depth + 1));
                if (peek() == ',') {
                    ++pos_;
                    continue;
                }
                expect(']');
                return value;
            }
        }
        if (c == '"') {
            value->kind = Value::Kind::String;
            value->text = parseString();
            return value;
        }
        if (consume("true")) {
            value->kind = Value::Kind::Bool;
            value->boolean = true;
            return value;
        }
        if (consume("false")) {
            value->kind = Value::Kind::Bool;
            value->boolean = false;
            return value;
        }
        if (consume("null"))
            return value;
        value->kind = Value::Kind::Number;
        value->number = parseNumber();
        return value;
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        while (pos_ < input_.size()) {
            const char c = input_[pos_++];
            if (c == '"')
                return out;
            if (c == '\\') {
                if (pos_ >= input_.size())
                    fail("unterminated escape");
                const char e = input_[pos_++];
                switch (e) {
                case 'n': out += '\n'; break;
                case 't': out += '\t'; break;
                case 'r': out += '\r'; break;
                case 'b': out += '\b'; break;
                case 'f': out += '\f'; break;
                case '/': out += '/'; break;
                case '"': out += '"'; break;
                case '\\': out += '\\'; break;
                case 'u':
                    // Accepted but substituted: no request field the
                    // protocol reads carries non-ASCII payloads.
                    if (pos_ + 4 > input_.size())
                        fail("truncated \\u escape");
                    pos_ += 4;
                    out += '?';
                    break;
                default: fail("unknown escape");
                }
                continue;
            }
            out += c;
        }
        fail("unterminated string");
    }

    double
    parseNumber()
    {
        skipSpace();
        // Match the JSON grammar first,
        // -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, so strtod's
        // extras (a leading '+', hexadecimal, inf/nan, ".5", "1.")
        // are malformed here.
        const std::size_t start = pos_;
        auto at = [&](std::string_view set) {
            return pos_ < input_.size() &&
                   set.find(input_[pos_]) != std::string_view::npos;
        };
        auto digits = [&] {
            const std::size_t first = pos_;
            while (at("0123456789"))
                ++pos_;
            if (pos_ == first)
                fail("malformed number");
        };
        if (at("-"))
            ++pos_;
        if (at("0"))
            ++pos_;
        else
            digits();
        if (at(".")) {
            ++pos_;
            digits();
        }
        if (at("eE")) {
            ++pos_;
            if (at("+-"))
                ++pos_;
            digits();
        }
        // strtod then reads that span in place: copying the rest of the
        // line per number would make a line of n numbers cost O(n^2)
        // to parse. If strtod reads past the span ("0x10", "02"), the
        // text is not JSON.
        const char *begin = input_.c_str() + start;
        char *end = nullptr;
        errno = 0;
        const double value = std::strtod(begin, &end);
        if (end != input_.c_str() + pos_ || errno == ERANGE)
            fail("malformed number");
        return value;
    }

    /** Deepest array/object nesting accepted (metrics responses: 6). */
    static constexpr std::size_t kMaxDepth = 64;

    const std::string &input_;
    std::size_t pos_ = 0;
};

} // namespace

ValuePtr
parse(const std::string &input)
{
    return Parser(input).parse();
}

std::string
quote(const std::string &text)
{
    std::string out = "\"";
    for (char c : text) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        case '\r': out += "\\r"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buffer[8];
                std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buffer;
            } else {
                out += c;
            }
        }
    }
    out += "\"";
    return out;
}

std::string
numberToJson(double value)
{
    if (!std::isfinite(value))
        return "null";
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    return buffer;
}

std::string
compact(const std::string &document)
{
    std::string out;
    out.reserve(document.size());
    bool in_string = false;
    bool escaped = false;
    for (char c : document) {
        if (in_string) {
            out += c;
            if (escaped)
                escaped = false;
            else if (c == '\\')
                escaped = true;
            else if (c == '"')
                in_string = false;
        } else if (c == '"') {
            in_string = true;
            out += c;
        } else if (c != ' ' && c != '\n' && c != '\t' && c != '\r') {
            out += c;
        }
    }
    return out;
}

} // namespace orianna::runtime::json
