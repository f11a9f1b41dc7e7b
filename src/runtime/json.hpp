#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

namespace orianna::runtime::json {

/**
 * Minimal JSON value model and recursive-descent parser for the
 * serving protocol (DESIGN.md §11). Parsing is strict JSON, numbers
 * included: `+1`, `0x10`, `02`, `.5`, `1.`, `inf` and `nan` are
 * malformed, and so is a number out of double range. *Schema*
 * handling on top of it is deliberately tolerant in the openrave
 * jsonreader style — requests
 * are read field by field, unknown fields are ignored, and a missing
 * or mistyped field is reported as a typed protocol error instead of
 * an exception tearing down the server.
 *
 * parse() throws std::runtime_error with a byte offset on malformed
 * input, including arrays and objects nested more than 64 deep; the
 * protocol layer catches it and answers with a "parse_error"
 * response.
 */
class Value;
using ValuePtr = std::shared_ptr<Value>;

class Value
{
  public:
    enum class Kind { Null, Bool, Number, String, Array, Object };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string text;
    std::vector<ValuePtr> items;
    std::map<std::string, ValuePtr> fields;

    bool isNull() const { return kind == Kind::Null; }
    bool isObject() const { return kind == Kind::Object; }
    bool isString() const { return kind == Kind::String; }
    bool isNumber() const { return kind == Kind::Number; }

    /** Field lookup on an object; nullptr when absent or not object. */
    const Value *field(const std::string &key) const;
};

/** @throws std::runtime_error on malformed input. */
ValuePtr parse(const std::string &input);

/** String escaped for embedding in a JSON document (with quotes). */
std::string quote(const std::string &text);

/**
 * A double as a JSON number that round-trips bit-exactly through a
 * conforming reader (17 significant digits); non-finite values —
 * which JSON cannot represent — serialize as null.
 */
std::string numberToJson(double value);

/**
 * @p document with every whitespace character outside strings
 * removed: a pretty-printed document on one line, for line-delimited
 * transports. Strings are copied verbatim (escapes included).
 */
std::string compact(const std::string &document);

} // namespace orianna::runtime::json
