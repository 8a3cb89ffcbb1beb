#ifndef XYSIG_SERVER_JSON_H
#define XYSIG_SERVER_JSON_H

/// \file json.h
/// Minimal JSON value type for the sweep server's newline-delimited wire
/// format (one job or result object per line). Deliberately tiny: the only
/// JSON the server speaks is flat-ish objects of numbers, strings, bools and
/// small arrays, so this supports exactly RFC 8259 values with no streaming,
/// no comments and no external dependency (the container image bakes in no
/// JSON library). Objects keep sorted key order (std::map) so serialised
/// output is deterministic — CI diffs NDJSON lines textually.

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "common/error.h"

namespace xysig::server {

/// Nesting cap of every parse. The parser is recursive-descent, so a
/// hostile line of ~100k '[' would otherwise overflow the network-facing
/// sweep_server's stack.
inline constexpr std::size_t kMaxJsonDepth = 64;

/// One JSON value (null / bool / number / string / array / object).
class JsonValue {
public:
    using Array = std::vector<JsonValue>;
    using Object = std::map<std::string, JsonValue>;

    JsonValue() = default; ///< null
    JsonValue(bool b) : kind_(Kind::boolean), bool_(b) {}
    JsonValue(double n) : kind_(Kind::number), number_(n) {}
    JsonValue(int n) : kind_(Kind::number), number_(n) {}
    JsonValue(std::size_t n)
        : kind_(Kind::number), number_(static_cast<double>(n)) {}
    JsonValue(const char* s) : kind_(Kind::string), string_(s) {}
    JsonValue(std::string s) : kind_(Kind::string), string_(std::move(s)) {}
    JsonValue(Array a) : kind_(Kind::array), array_(std::move(a)) {}
    JsonValue(Object o) : kind_(Kind::object), object_(std::move(o)) {}

    /// Parses one JSON document (the whole string must be consumed, apart
    /// from trailing whitespace). Throws InvalidInput with an offset on
    /// malformed text. Numbers must match the RFC 8259 grammar exactly:
    /// strtod-isms accepted by std::from_chars — "inf"/"nan" (reachable
    /// through a leading '-'), leading-zero integers like "01", and
    /// trailing-/leading-dot forms — are rejected.
    /// Nesting deeper than kMaxJsonDepth is rejected the same way.
    [[nodiscard]] static JsonValue parse(const std::string& text);

    /// parse() with duplicate object keys rejected — the wire layer's
    /// request/validation entry points use this. RFC 8259 leaves duplicate
    /// handling to the application, so the tolerant parse keeps the last
    /// value; strict mode makes a job line with conflicting fields fail
    /// loudly instead of silently picking one.
    [[nodiscard]] static JsonValue parse_strict(const std::string& text);

    /// Compact single-line serialisation (no spaces, sorted object keys).
    /// Numbers use the shortest round-trippable decimal form.
    [[nodiscard]] std::string dump() const;

    [[nodiscard]] bool is_null() const noexcept { return kind_ == Kind::null; }
    [[nodiscard]] bool is_bool() const noexcept { return kind_ == Kind::boolean; }
    [[nodiscard]] bool is_number() const noexcept { return kind_ == Kind::number; }
    [[nodiscard]] bool is_string() const noexcept { return kind_ == Kind::string; }
    [[nodiscard]] bool is_array() const noexcept { return kind_ == Kind::array; }
    [[nodiscard]] bool is_object() const noexcept { return kind_ == Kind::object; }

    /// Checked accessors; throw InvalidInput on a kind mismatch.
    [[nodiscard]] bool as_bool() const;
    [[nodiscard]] double as_number() const;
    [[nodiscard]] const std::string& as_string() const;
    [[nodiscard]] const Array& as_array() const;
    [[nodiscard]] const Object& as_object() const;

    /// Object conveniences for the job schema: value of `key`, or the
    /// fallback when the key is absent (kind-mismatched values throw).
    [[nodiscard]] bool has(const std::string& key) const;
    [[nodiscard]] const JsonValue& at(const std::string& key) const;
    [[nodiscard]] double number_or(const std::string& key, double fallback) const;
    [[nodiscard]] std::string string_or(const std::string& key,
                                        std::string fallback) const;
    [[nodiscard]] bool bool_or(const std::string& key, bool fallback) const;

private:
    enum class Kind { null, boolean, number, string, array, object };

    Kind kind_ = Kind::null;
    bool bool_ = false;
    double number_ = 0.0;
    std::string string_;
    Array array_;
    Object object_;
};

} // namespace xysig::server

#endif // XYSIG_SERVER_JSON_H
