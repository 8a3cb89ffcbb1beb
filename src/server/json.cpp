#include "server/json.h"

#include <charconv>
#include <cmath>
#include <cstdlib>

namespace xysig::server {

namespace {

/// Recursive-descent parser over a flat character range.
class Parser {
public:
    Parser(const std::string& text, bool reject_duplicate_keys)
        : text_(text), reject_duplicate_keys_(reject_duplicate_keys) {}

    JsonValue parse_document() {
        JsonValue v = parse_value();
        skip_ws();
        if (pos_ != text_.size())
            fail("trailing characters after JSON value");
        return v;
    }

private:
    [[noreturn]] void fail(const std::string& why) const {
        throw InvalidInput("json: " + why + " at offset " +
                           std::to_string(pos_));
    }

    void skip_ws() {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    char peek() {
        if (pos_ >= text_.size())
            fail("unexpected end of input");
        return text_[pos_];
    }

    void expect(char c) {
        if (peek() != c)
            fail(std::string("expected '") + c + "'");
        ++pos_;
    }

    bool consume_literal(const char* lit) {
        std::size_t i = 0;
        while (lit[i] != '\0') {
            if (pos_ + i >= text_.size() || text_[pos_ + i] != lit[i])
                return false;
            ++i;
        }
        pos_ += i;
        return true;
    }

    JsonValue parse_value() {
        skip_ws();
        const char c = peek();
        switch (c) {
        case '{':
        case '[': {
            // Depth cap: the parser recurses once per nested container, so
            // untrusted input must not control the stack depth.
            if (depth_ >= kMaxJsonDepth)
                fail("nesting depth exceeds " + std::to_string(kMaxJsonDepth));
            ++depth_;
            JsonValue v = c == '{' ? parse_object() : parse_array();
            --depth_;
            return v;
        }
        case '"':
            return JsonValue(parse_string());
        case 't':
            if (consume_literal("true"))
                return JsonValue(true);
            fail("invalid literal");
        case 'f':
            if (consume_literal("false"))
                return JsonValue(false);
            fail("invalid literal");
        case 'n':
            if (consume_literal("null"))
                return JsonValue();
            fail("invalid literal");
        default:
            return parse_number();
        }
    }

    JsonValue parse_object() {
        expect('{');
        JsonValue::Object obj;
        skip_ws();
        if (peek() == '}') {
            ++pos_;
            return JsonValue(std::move(obj));
        }
        while (true) {
            skip_ws();
            std::string key = parse_string();
            skip_ws();
            expect(':');
            if (reject_duplicate_keys_ && obj.count(key) != 0)
                fail("duplicate object key \"" + key + "\"");
            obj.insert_or_assign(std::move(key), parse_value());
            skip_ws();
            const char c = peek();
            if (c == ',') {
                ++pos_;
                continue;
            }
            if (c == '}') {
                ++pos_;
                return JsonValue(std::move(obj));
            }
            fail("expected ',' or '}' in object");
        }
    }

    JsonValue parse_array() {
        expect('[');
        JsonValue::Array arr;
        skip_ws();
        if (peek() == ']') {
            ++pos_;
            return JsonValue(std::move(arr));
        }
        while (true) {
            arr.push_back(parse_value());
            skip_ws();
            const char c = peek();
            if (c == ',') {
                ++pos_;
                continue;
            }
            if (c == ']') {
                ++pos_;
                return JsonValue(std::move(arr));
            }
            fail("expected ',' or ']' in array");
        }
    }

    std::string parse_string() {
        expect('"');
        std::string out;
        while (true) {
            if (pos_ >= text_.size())
                fail("unterminated string");
            const char c = text_[pos_++];
            if (c == '"')
                return out;
            if (static_cast<unsigned char>(c) < 0x20)
                fail("unescaped control character in string");
            if (c != '\\') {
                out.push_back(c);
                continue;
            }
            if (pos_ >= text_.size())
                fail("unterminated escape");
            const char esc = text_[pos_++];
            switch (esc) {
            case '"': out.push_back('"'); break;
            case '\\': out.push_back('\\'); break;
            case '/': out.push_back('/'); break;
            case 'b': out.push_back('\b'); break;
            case 'f': out.push_back('\f'); break;
            case 'n': out.push_back('\n'); break;
            case 'r': out.push_back('\r'); break;
            case 't': out.push_back('\t'); break;
            case 'u': {
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    if (pos_ >= text_.size())
                        fail("truncated \\u escape");
                    const char h = text_[pos_++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        fail("invalid \\u escape digit");
                }
                // UTF-8 encode the BMP code point (surrogate pairs are not
                // needed by the job schema; reject them explicitly).
                if (code >= 0xD800 && code <= 0xDFFF)
                    fail("surrogate \\u escapes are not supported");
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
                fail("invalid escape");
            }
        }
    }

    JsonValue parse_number() {
        // Pre-validate against the RFC 8259 grammar
        //     -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
        // before handing anything to std::from_chars: its default
        // (strtod-style) format also accepts "inf"/"nan" (reachable here
        // through the '-' dispatch), leading-zero integers and bare-dot
        // forms, none of which are JSON.
        const std::size_t start = pos_;
        std::size_t p = pos_;
        const auto digit_at = [&](std::size_t i) {
            return i < text_.size() && text_[i] >= '0' && text_[i] <= '9';
        };
        if (p < text_.size() && text_[p] == '-')
            ++p;
        if (!digit_at(p))
            fail("invalid number");
        if (text_[p] == '0')
            ++p; // a leading zero must stand alone ("01" is not a number)
        else
            while (digit_at(p))
                ++p;
        if (p < text_.size() && text_[p] == '.') {
            ++p;
            if (!digit_at(p))
                fail("invalid number"); // "1." has no fraction digits
            while (digit_at(p))
                ++p;
        }
        if (p < text_.size() && (text_[p] == 'e' || text_[p] == 'E')) {
            ++p;
            if (p < text_.size() && (text_[p] == '+' || text_[p] == '-'))
                ++p;
            if (!digit_at(p))
                fail("invalid number"); // "1e" / "1e+" have no exponent
            while (digit_at(p))
                ++p;
        }
        const char* begin = text_.data() + start;
        const char* end = text_.data() + p;
        double value = 0.0;
        const auto [ptr, ec] = std::from_chars(begin, end, value);
        if (ec != std::errc() || ptr != end)
            fail("invalid number");
        pos_ = p;
        return JsonValue(value);
    }

    const std::string& text_;
    bool reject_duplicate_keys_;
    std::size_t pos_ = 0;
    std::size_t depth_ = 0;
};

void dump_string(const std::string& s, std::string& out) {
    out.push_back('"');
    for (const char c : s) {
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
                static const char* hex = "0123456789abcdef";
                out += "\\u00";
                out.push_back(hex[(c >> 4) & 0xF]);
                out.push_back(hex[c & 0xF]);
            } else {
                out.push_back(c);
            }
        }
    }
    out.push_back('"');
}

void dump_number(double v, std::string& out) {
    if (!std::isfinite(v)) {
        // JSON has no NaN/Inf; the wire format uses null (the sweep server
        // additionally carries the exact bits in an "_hex" sibling field).
        out += "null";
        return;
    }
    char buf[32];
    const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
    out.append(buf, static_cast<std::size_t>(ptr - buf));
}

} // namespace

JsonValue JsonValue::parse(const std::string& text) {
    return Parser(text, false).parse_document();
}

JsonValue JsonValue::parse_strict(const std::string& text) {
    return Parser(text, true).parse_document();
}

std::string JsonValue::dump() const {
    std::string out;
    switch (kind_) {
    case Kind::null:
        out = "null";
        break;
    case Kind::boolean:
        out = bool_ ? "true" : "false";
        break;
    case Kind::number:
        dump_number(number_, out);
        break;
    case Kind::string:
        dump_string(string_, out);
        break;
    case Kind::array: {
        out.push_back('[');
        for (std::size_t i = 0; i < array_.size(); ++i) {
            if (i > 0)
                out.push_back(',');
            out += array_[i].dump();
        }
        out.push_back(']');
        break;
    }
    case Kind::object: {
        out.push_back('{');
        bool first = true;
        for (const auto& [key, value] : object_) {
            if (!first)
                out.push_back(',');
            first = false;
            dump_string(key, out);
            out.push_back(':');
            out += value.dump();
        }
        out.push_back('}');
        break;
    }
    }
    return out;
}

bool JsonValue::as_bool() const {
    if (!is_bool())
        throw InvalidInput("json: value is not a boolean");
    return bool_;
}

double JsonValue::as_number() const {
    if (!is_number())
        throw InvalidInput("json: value is not a number");
    return number_;
}

const std::string& JsonValue::as_string() const {
    if (!is_string())
        throw InvalidInput("json: value is not a string");
    return string_;
}

const JsonValue::Array& JsonValue::as_array() const {
    if (!is_array())
        throw InvalidInput("json: value is not an array");
    return array_;
}

const JsonValue::Object& JsonValue::as_object() const {
    if (!is_object())
        throw InvalidInput("json: value is not an object");
    return object_;
}

bool JsonValue::has(const std::string& key) const {
    return as_object().count(key) != 0;
}

const JsonValue& JsonValue::at(const std::string& key) const {
    const Object& obj = as_object();
    const auto it = obj.find(key);
    if (it == obj.end())
        throw InvalidInput("json: missing key '" + key + "'");
    return it->second;
}

double JsonValue::number_or(const std::string& key, double fallback) const {
    const Object& obj = as_object();
    const auto it = obj.find(key);
    return it == obj.end() ? fallback : it->second.as_number();
}

std::string JsonValue::string_or(const std::string& key,
                                 std::string fallback) const {
    const Object& obj = as_object();
    const auto it = obj.find(key);
    return it == obj.end() ? fallback : it->second.as_string();
}

bool JsonValue::bool_or(const std::string& key, bool fallback) const {
    const Object& obj = as_object();
    const auto it = obj.find(key);
    return it == obj.end() ? fallback : it->second.as_bool();
}

} // namespace xysig::server
