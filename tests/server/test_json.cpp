// Minimal JSON layer of the sweep server's NDJSON wire format, plus the
// wire-schema rules layered on top of it (protocol version, unknown-field
// tolerance, member-range slicing): see docs/PROTOCOL.md.

#include "server/json.h"

#include <bit>
#include <cstdint>
#include <limits>

#include <gtest/gtest.h>

#include "server/wire.h"

namespace xysig::server {
namespace {

TEST(Json, ParsesScalarsAndContainers) {
    const JsonValue v = JsonValue::parse(
        R"({"a":1.5,"b":"text","c":[1,2,3],"d":{"e":true,"f":null},"g":-2e3})");
    EXPECT_DOUBLE_EQ(v.at("a").as_number(), 1.5);
    EXPECT_EQ(v.at("b").as_string(), "text");
    ASSERT_EQ(v.at("c").as_array().size(), 3u);
    EXPECT_DOUBLE_EQ(v.at("c").as_array()[2].as_number(), 3.0);
    EXPECT_TRUE(v.at("d").at("e").as_bool());
    EXPECT_TRUE(v.at("d").at("f").is_null());
    EXPECT_DOUBLE_EQ(v.at("g").as_number(), -2000.0);
}

TEST(Json, ObjectHelpers) {
    const JsonValue v = JsonValue::parse(R"({"n":4,"s":"x","b":false})");
    EXPECT_TRUE(v.has("n"));
    EXPECT_FALSE(v.has("missing"));
    EXPECT_DOUBLE_EQ(v.number_or("n", -1.0), 4.0);
    EXPECT_DOUBLE_EQ(v.number_or("missing", -1.0), -1.0);
    EXPECT_EQ(v.string_or("s", "d"), "x");
    EXPECT_EQ(v.string_or("missing", "d"), "d");
    EXPECT_FALSE(v.bool_or("b", true));
    EXPECT_TRUE(v.bool_or("missing", true));
    EXPECT_THROW((void)v.at("missing"), InvalidInput);
}

TEST(Json, StringEscapes) {
    const JsonValue v = JsonValue::parse(R"({"s":"a\"b\\c\n\tA"})");
    EXPECT_EQ(v.at("s").as_string(), "a\"b\\c\n\tA");
    // Round trip.
    const JsonValue again = JsonValue::parse(v.dump());
    EXPECT_EQ(again.at("s").as_string(), v.at("s").as_string());
}

TEST(Json, DumpIsDeterministicAndRoundTrips) {
    const char* text = R"({"z":1,"a":[true,null,"s"],"m":{"k":0.125}})";
    const JsonValue v = JsonValue::parse(text);
    const std::string dumped = v.dump();
    // Sorted keys, compact form.
    EXPECT_EQ(dumped, R"({"a":[true,null,"s"],"m":{"k":0.125},"z":1})");
    EXPECT_EQ(JsonValue::parse(dumped).dump(), dumped);
}

TEST(Json, NumbersRoundTripExactly) {
    for (const double x : {0.1, 1e300, -4.9e-324, 12345.6789, 0.0}) {
        const std::string dumped = JsonValue(x).dump();
        EXPECT_EQ(JsonValue::parse(dumped).as_number(), x) << dumped;
    }
}

TEST(Json, NonFiniteNumbersSerialiseAsNull) {
    EXPECT_EQ(JsonValue(std::numeric_limits<double>::quiet_NaN()).dump(),
              "null");
    EXPECT_EQ(JsonValue(std::numeric_limits<double>::infinity()).dump(),
              "null");
}

TEST(Json, RejectsMalformedInput) {
    EXPECT_THROW((void)JsonValue::parse(""), InvalidInput);
    EXPECT_THROW((void)JsonValue::parse("{"), InvalidInput);
    EXPECT_THROW((void)JsonValue::parse("{\"a\":}"), InvalidInput);
    EXPECT_THROW((void)JsonValue::parse("[1,2,]"), InvalidInput);
    EXPECT_THROW((void)JsonValue::parse("tru"), InvalidInput);
    EXPECT_THROW((void)JsonValue::parse("{} extra"), InvalidInput);
    EXPECT_THROW((void)JsonValue::parse("\"unterminated"), InvalidInput);
    EXPECT_THROW((void)JsonValue::parse("{\"a\":1}{}"), InvalidInput);
}

TEST(Json, RejectsNonRfc8259Numbers) {
    // RFC 8259 number grammar: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?.
    // std::from_chars alone is laxer than that (it accepts "inf"/"nan" and
    // leading-zero forms), so the parser pre-scans the grammar; none of
    // these may sneak onto the wire as a number.
    for (const char* bad :
         {"inf", "-inf", "Infinity", "-Infinity", "nan", "-nan", "NaN",
          "01", "-01", "00", "1.", "-2.", ".5", "-.5", "+1", "1e", "1e+",
          "1.e3", "0x10", "1_000", "--1", "1..2", "1.2.3", "9e999999999"}) {
        EXPECT_THROW((void)JsonValue::parse(bad), InvalidInput) << bad;
        EXPECT_THROW((void)JsonValue::parse(std::string("{\"x\":") + bad + "}"),
                     InvalidInput)
            << bad;
    }
    // The strict grammar still admits every legitimate spelling.
    for (const char* good : {"0", "-0", "10", "0.5", "-0.5", "1e3", "1E-3",
                             "1e+3", "0e0", "123.456e-7"})
        EXPECT_NO_THROW((void)JsonValue::parse(good)) << good;
}

TEST(Json, NestingDepthIsBounded) {
    // An adversarial line of ~100k '[' used to recurse once per bracket and
    // overflow the stack; depth is capped at kMaxJsonDepth (64) with a clean
    // InvalidInput instead.
    const auto nested = [](std::size_t depth) {
        return std::string(depth, '[') + "1" + std::string(depth, ']');
    };
    EXPECT_NO_THROW((void)JsonValue::parse(nested(64))); // at the cap
    EXPECT_THROW((void)JsonValue::parse(nested(65)), InvalidInput);
    EXPECT_THROW((void)JsonValue::parse(nested(100000)), InvalidInput);
    EXPECT_THROW((void)JsonValue::parse(std::string(100000, '[')),
                 InvalidInput); // unbalanced variant must not overflow either
    // Mixed object/array nesting counts every container level.
    std::string mixed = "1";
    for (std::size_t i = 0; i < 50; ++i)
        mixed = "{\"k\":[" + mixed + "]}";
    EXPECT_THROW((void)JsonValue::parse(mixed), InvalidInput);
    // The strict parse enforces the same cap.
    EXPECT_NO_THROW((void)JsonValue::parse_strict(nested(kMaxJsonDepth)));
    EXPECT_THROW((void)JsonValue::parse_strict(nested(kMaxJsonDepth + 1)),
                 InvalidInput);
}

TEST(Json, DuplicateKeysRejectedInStrictMode) {
    const std::string dup = R"({"id":"a","id":"b"})";
    // The tolerant parse keeps last-wins (interoperability with peers that
    // emit duplicates), strict mode refuses the line outright.
    EXPECT_EQ(JsonValue::parse(dup).at("id").as_string(), "b");
    EXPECT_THROW((void)JsonValue::parse_strict(dup), InvalidInput);
    EXPECT_THROW((void)JsonValue::parse_strict(
                     R"({"outer":{"k":1,"k":2}})"), // nested objects too
                 InvalidInput);
    EXPECT_NO_THROW((void)JsonValue::parse_strict(
        R"({"a":{"k":1},"b":{"k":2}})")); // same key in sibling objects is fine
}

TEST(Json, KindMismatchThrows) {
    const JsonValue v = JsonValue::parse("[1]");
    EXPECT_THROW((void)v.as_object(), InvalidInput);
    EXPECT_THROW((void)v.as_number(), InvalidInput);
    EXPECT_THROW((void)v.as_array()[0].as_string(), InvalidInput);
}

// ---------------------------------------------------------------- wire layer

TEST(Wire, VersionlessPr4JobsStillParse) {
    // Backward compatibility: every PR-4 job line (no "version" field) is
    // a valid version-1 job, byte for byte. Its "shard_size" is ignored now
    // that the worker sizes work units itself.
    const WireJob wire = parse_wire_job(JsonValue::parse(
        R"({"job":"deviations","id":"legacy","parameter":"q","deviations":[-10,-5,5,10],"shard_size":2,"progress_every":3,"cancel_after":0,"emit_signatures":false,"verify_serial":true})"));
    EXPECT_EQ(wire.version, 1);
    EXPECT_EQ(wire.id, "legacy");
    EXPECT_EQ(wire.job.size(), 4u);
    EXPECT_EQ(wire.universe_members, 4u);
    EXPECT_EQ(wire.member_offset, 0u);
    EXPECT_EQ(wire.parameter, core::SweptParameter::q);
    EXPECT_EQ(wire.progress_every, 3u);
    EXPECT_FALSE(wire.emit_signatures);
    EXPECT_TRUE(wire.verify_serial);
}

TEST(Wire, VersionFieldAcceptedCheckedAndUnknownFieldsTolerated) {
    // "version":1 is accepted, unknown fields are ignored (the tolerant-
    // reader rule that makes minor protocol additions non-breaking)...
    const WireJob wire = parse_wire_job(JsonValue::parse(
        R"({"job":"deviations","version":1,"deviations":[-5,5],"some_future_field":{"x":1},"another":true})"));
    EXPECT_EQ(wire.version, 1);
    EXPECT_EQ(wire.job.size(), 2u);
    // ...while a version newer than this build and malformed versions are
    // rejected up front.
    EXPECT_THROW((void)parse_wire_job(JsonValue::parse(
                     R"({"job":"deviations","version":99,"deviations":[-5,5]})")),
                 InvalidInput);
    EXPECT_THROW((void)parse_wire_job(JsonValue::parse(
                     R"({"job":"deviations","version":0,"deviations":[-5,5]})")),
                 InvalidInput);
    EXPECT_THROW((void)parse_wire_job(JsonValue::parse(
                     R"({"job":"deviations","version":1.5,"deviations":[-5,5]})")),
                 InvalidInput);
}

TEST(Wire, MemberRangeSlicesTheUniverse) {
    const WireJob wire = parse_wire_job(JsonValue::parse(
        R"({"job":"deviations","deviations":[0,1,2,3,4,5,6,7,8,9],"members":{"first":3,"count":4}})"));
    EXPECT_EQ(wire.universe_members, 10u);
    EXPECT_EQ(wire.member_offset, 3u);
    ASSERT_EQ(wire.deviations.size(), 4u);
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_EQ(wire.deviations[i], static_cast<double>(3 + i));

    // count omitted = to the universe end; count 0 = an empty slice.
    EXPECT_EQ(parse_wire_job(
                  JsonValue::parse(
                      R"({"job":"deviations","deviations":[0,1,2],"members":{"first":1}})"))
                  .job.size(),
              2u);
    EXPECT_EQ(parse_wire_job(
                  JsonValue::parse(
                      R"({"job":"deviations","deviations":[0,1,2],"members":{"first":1,"count":0}})"))
                  .job.size(),
              0u);
    // Ranges past the universe end are schema errors, not clamps.
    EXPECT_THROW((void)parse_wire_job(JsonValue::parse(
                     R"({"job":"deviations","deviations":[0,1],"members":{"first":3}})")),
                 InvalidInput);
    EXPECT_THROW((void)parse_wire_job(JsonValue::parse(
                     R"({"job":"deviations","deviations":[0,1],"members":{"first":1,"count":2}})")),
                 InvalidInput);
}

TEST(Wire, GridSlicesAreBitIdenticalToTheFullGrid) {
    // The fan-out cornerstone: a grid member's deviation value depends on
    // its global id only, so slicing after materialisation concatenates
    // back to the full grid bit for bit.
    const std::string grid =
        R"("grid":{"from":-20,"to":20,"count":101})";
    const WireJob full = parse_wire_job(
        JsonValue::parse(R"({"job":"deviations",)" + grid + "}"));
    const WireJob lo = parse_wire_job(JsonValue::parse(
        R"({"job":"deviations",)" + grid +
        R"(,"members":{"first":0,"count":37}})"));
    const WireJob hi = parse_wire_job(JsonValue::parse(
        R"({"job":"deviations",)" + grid + R"(,"members":{"first":37}})"));
    ASSERT_EQ(lo.deviations.size() + hi.deviations.size(),
              full.deviations.size());
    for (std::size_t i = 0; i < full.deviations.size(); ++i) {
        const double sliced =
            i < 37 ? lo.deviations[i] : hi.deviations[i - 37];
        EXPECT_EQ(std::bit_cast<std::uint64_t>(sliced),
                  std::bit_cast<std::uint64_t>(full.deviations[i]))
            << "member " << i;
    }
}

TEST(Wire, CheckProtocolLineAcceptsTheSchemaAndRejectsDrift) {
    // Requests.
    EXPECT_NO_THROW(check_protocol_line(
        R"({"job":"deviations","grid":{"from":-20,"to":20,"count":100}})"));
    EXPECT_NO_THROW(check_protocol_line(R"({"cmd":"stats"})"));
    EXPECT_NO_THROW(check_protocol_line(R"({"cmd":"cancel","id":"job-1"})"));
    // Events, including null NDFs (NaN members).
    EXPECT_NO_THROW(check_protocol_line(
        R"x({"event":"result","member":3,"ndf":null,"ndf_hex":"nan","label":"open(R1)"})x"));
    // The ready banner, and an older one that still carries shard_size.
    EXPECT_NO_THROW(check_protocol_line(
        R"({"event":"ready","samples_per_period":256,"version":3,"workers":2})"));
    EXPECT_NO_THROW(check_protocol_line(
        R"({"event":"ready","samples_per_period":256,"shard_size":64,"version":3,"workers":2})"));
    // Unknown events / commands, missing required fields, wrong types.
    EXPECT_THROW(check_protocol_line(R"({"event":"nope"})"), InvalidInput);
    EXPECT_THROW(check_protocol_line(R"({"cmd":"reboot"})"), InvalidInput);
    EXPECT_THROW(check_protocol_line(
                     R"({"event":"result","member":3,"ndf":0.5,"label":"x"})"),
                 InvalidInput); // ndf_hex missing
    EXPECT_THROW(check_protocol_line(
                     R"({"event":"progress","done":"three","total":10})"),
                 InvalidInput); // wrong type
    EXPECT_THROW(check_protocol_line(R"({"hello":"world"})"), InvalidInput);
    EXPECT_THROW(check_protocol_line(R"([1,2,3])"), InvalidInput);
}

TEST(Wire, CheckProtocolLineIsStrictAboutMaliciousLines) {
    // The `--check` gate (and the live session) run the hardened parser:
    // non-RFC-8259 numbers, pathological nesting and duplicate keys are
    // schema violations, not silently-massaged input.
    EXPECT_THROW(check_protocol_line(
                     R"({"job":"deviations","deviations":[-inf,5]})"),
                 InvalidInput);
    EXPECT_THROW(check_protocol_line(
                     R"({"job":"deviations","deviations":[01,5]})"),
                 InvalidInput);
    EXPECT_THROW(
        check_protocol_line(std::string(100000, '[')), // depth bomb
        InvalidInput);
    EXPECT_THROW(check_protocol_line(
                     R"({"cmd":"cancel","id":"a","id":"b"})"), // dup key
                 InvalidInput);
}

TEST(Wire, SchedulingFieldsParseAndValidate) {
    const WireJob wire = parse_wire_job(JsonValue::parse(
        R"({"job":"deviations","version":2,"deviations":[-5,5],"priority":7,"client":"tester"})"));
    EXPECT_EQ(wire.version, 2);
    EXPECT_EQ(wire.priority, 7);
    EXPECT_EQ(wire.client, "tester");
    // Defaults when absent.
    const WireJob plain = parse_wire_job(
        JsonValue::parse(R"({"job":"deviations","deviations":[-5,5]})"));
    EXPECT_EQ(plain.priority, 0);
    EXPECT_TRUE(plain.client.empty());
    // Priority must be an integer in a sane range.
    EXPECT_THROW((void)parse_wire_job(JsonValue::parse(
                     R"({"job":"deviations","deviations":[1],"priority":1.5})")),
                 InvalidInput);
    EXPECT_THROW((void)parse_wire_job(JsonValue::parse(
                     R"({"job":"deviations","deviations":[1],"priority":1e10})")),
                 InvalidInput);
}

TEST(Wire, OutOfRangeNumbersAreRejectedAtDecodeNamingTheField) {
    // Each value would otherwise pass decoding and fail later as a
    // precondition violation deep inside the filter or fault-universe code.
    const auto rejects = [](const std::string& line, const std::string& field) {
        try {
            (void)parse_wire_job(JsonValue::parse(line));
            ADD_FAILURE() << "accepted: " << line;
        } catch (const InvalidInput& e) {
            const std::string what = e.what();
            EXPECT_NE(what.find(field), std::string::npos) << what;
            EXPECT_EQ(what.find("precondition"), std::string::npos) << what;
        }
    };
    rejects(R"({"job":"deviations","deviations":[5,-100]})", "deviations");
    rejects(R"({"job":"deviations","deviations":[-250]})", "deviations");
    rejects(R"({"job":"deviations","grid":{"from":-100,"to":20,"count":5}})", "grid");
    // A materialised member out of range is rejected even when the member
    // range slices it away: the universe is defined over every member.
    rejects(R"({"job":"deviations","grid":{"from":20,"to":-120,"count":3},"members":{"first":0,"count":1}})",
            "grid");
    rejects(R"({"job":"spice_faults","settle_periods":0})", "settle_periods");
    rejects(R"({"job":"spice_faults","settle_periods":4294967296})", "settle_periods");
    rejects(R"({"job":"spice_faults","bridge_resistance":0})", "bridge_resistance");
    rejects(R"({"job":"spice_faults","bridge_resistance":-50})", "bridge_resistance");
    rejects(R"({"job":"spice_faults","open_factor":1})", "open_factor");
    rejects(R"({"job":"spice_faults","universe":"bridging","open_factor":0.5})",
            "open_factor");
    // Values just inside each bound still decode.
    EXPECT_NO_THROW((void)parse_wire_job(JsonValue::parse(
        R"({"job":"deviations","deviations":[-99.9,300]})")));
    EXPECT_NO_THROW((void)parse_wire_job(JsonValue::parse(
        R"({"job":"spice_faults","settle_periods":1,"bridge_resistance":1e-3,"open_factor":1.5})")));
}

TEST(Wire, FastMathFieldIsAlwaysPinned) {
    // Tolerant-reader default: an absent fast_math field means exact mode,
    // and the decoded job always pins the flag (never nullopt/inherit) so
    // one client's fast_math job can never change the mode a later exact
    // job in the same service evaluates under.
    const WireJob plain = parse_wire_job(
        JsonValue::parse(R"({"job":"deviations","deviations":[-5,5]})"));
    ASSERT_TRUE(plain.job.fast_math.has_value());
    EXPECT_FALSE(*plain.job.fast_math);
    const WireJob fast = parse_wire_job(JsonValue::parse(
        R"({"job":"deviations","version":3,"deviations":[-5,5],"fast_math":true})"));
    ASSERT_TRUE(fast.job.fast_math.has_value());
    EXPECT_TRUE(*fast.job.fast_math);
    // Present but not a boolean is malformed, not silently defaulted.
    EXPECT_THROW(
        (void)parse_wire_job(JsonValue::parse(
            R"({"job":"deviations","deviations":[1],"fast_math":1})")),
        InvalidInput);
}

TEST(Wire, UniverseKeyIsContentAddressedAndRangeFree) {
    // The whole-job cache key half: the same full universe spelled as an
    // explicit list or a grid hashes identically, and the member range is
    // excluded (covering-range lookups depend on that).
    const WireJob list = parse_wire_job(JsonValue::parse(
        R"({"job":"deviations","deviations":[-20,-10,0,10,20]})"));
    const WireJob grid = parse_wire_job(JsonValue::parse(
        R"({"job":"deviations","grid":{"from":-20,"to":20,"count":5}})"));
    ASSERT_FALSE(list.universe_key.empty());
    EXPECT_EQ(list.universe_key, grid.universe_key);
    const WireJob slice = parse_wire_job(JsonValue::parse(
        R"({"job":"deviations","deviations":[-20,-10,0,10,20],"members":{"first":1,"count":2}})"));
    EXPECT_EQ(slice.universe_key, list.universe_key);
    // Different parameter or different values = different key.
    const WireJob q = parse_wire_job(JsonValue::parse(
        R"({"job":"deviations","parameter":"q","deviations":[-20,-10,0,10,20]})"));
    EXPECT_NE(q.universe_key, list.universe_key);
    const WireJob other = parse_wire_job(JsonValue::parse(
        R"({"job":"deviations","deviations":[-20,-10,0,10,21]})"));
    EXPECT_NE(other.universe_key, list.universe_key);
}

} // namespace
} // namespace xysig::server
