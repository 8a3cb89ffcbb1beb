#include "jobs.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "server/json.h"

namespace perfbench {

using xysig::Rng;
using xysig::server::JsonValue;

namespace {

/// splitmix64 finaliser: independent generator seeds per (seed, stream).
[[nodiscard]] std::uint64_t mix(std::uint64_t seed, std::uint64_t stream) {
    std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (stream + 1);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

[[nodiscard]] JobRecord make_record(std::string id, JobRecord::Kind kind,
                                    const JsonValue::Object& obj) {
    JobRecord r;
    r.id = std::move(id);
    r.kind = kind;
    r.line = JsonValue(obj).dump();
    return r;
}

} // namespace

JobRecord grid_job(std::uint64_t seed, std::size_t k) {
    Rng rng(mix(seed, k));
    JsonValue::Object grid;
    grid.emplace("from", -rng.uniform(5.0, 30.0));
    grid.emplace("to", rng.uniform(5.0, 30.0));
    grid.emplace("count", kGridMembers);
    JsonValue::Object o;
    o.emplace("job", "deviations");
    o.emplace("id", "g" + std::to_string(k));
    o.emplace("parameter", k % 2 == 0 ? "f0" : "q");
    o.emplace("grid", std::move(grid));
    return make_record("g" + std::to_string(k), JobRecord::Kind::grid, o);
}

JobRecord spice_job(std::uint64_t seed, std::size_t k) {
    Rng rng(mix(seed, k));
    JsonValue::Object o;
    o.emplace("job", "spice_faults");
    o.emplace("id", "s" + std::to_string(k));
    o.emplace("universe", "bridging+open");
    o.emplace("bridge_resistance", rng.uniform(50.0, 400.0));
    o.emplace("open_factor", std::pow(10.0, rng.uniform(5.0, 7.0)));
    return make_record("s" + std::to_string(k), JobRecord::Kind::spice, o);
}

std::vector<PlannedSend> tenant_schedule(std::uint64_t seed, double seconds,
                                         double rate_per_s) {
    enum Pick { exact, fast, resubmit, slice };
    struct Fresh {
        double due;
        std::string id;
        std::string client;
        JsonValue::Object obj;
        std::size_t members;
    };
    Rng rng(mix(seed, 0x7e7a7));
    // Poisson arrivals conditioned on their count in each block of
    // kArrivalsPerBlock mean gaps: that many uniform times per block,
    // sorted. Fixing the counts, and dealing the job kinds, list sizes and
    // priorities from shuffled decks, keeps the offered work the same on
    // every seed and bounds how much of it one burst can pile up; only the
    // order and the arrival gaps change.
    constexpr double kArrivalsPerBlock = 5.0;
    const double block_s = kArrivalsPerBlock / rate_per_s;
    std::vector<double> due;
    for (double block = 0.0; block < seconds; block += block_s) {
        const double length = std::min(block_s, seconds - block);
        const auto count = static_cast<std::size_t>(std::lround(rate_per_s * length));
        for (std::size_t i = 0; i < count; ++i)
            due.push_back(rng.uniform(block, block + length));
    }
    std::sort(due.begin(), due.end());
    const std::size_t n_jobs = due.size();
    std::vector<int> kinds;
    std::vector<int> sizes[2]; ///< one deck per mode: exact, fast_math
    std::vector<int> priorities;
    auto deal = [&](std::vector<int>& deck, std::vector<int> fresh_deck) {
        if (deck.empty()) {
            for (std::size_t i = fresh_deck.size(); i > 1; --i)
                std::swap(fresh_deck[i - 1],
                          fresh_deck[static_cast<std::size_t>(rng.uniform_int(
                              0, static_cast<std::int64_t>(i) - 1))]);
            deck = std::move(fresh_deck);
        }
        const int v = deck.back();
        deck.pop_back();
        return v;
    };

    std::vector<PlannedSend> out;
    std::vector<Fresh> fresh;
    double next_stats = 1.0;
    for (std::size_t k = 0; k < n_jobs; ++k) {
        const double t = due[k];
        for (; next_stats <= t; next_stats += 1.0)
            out.push_back({next_stats, true, {}});
        const std::string id = "t" + std::to_string(k);
        const std::string client = "c" + std::to_string(rng.uniform_int(0, 3));
        const bool high = deal(priorities, {1, 0, 0, 0, 0, 0, 0, 0, 0, 0}) == 1;
        const int pick = deal(kinds, {exact, exact, exact, exact, exact, exact, exact,
                                      exact, fast, fast, fast, fast, resubmit, resubmit,
                                      resubmit, resubmit, resubmit, slice, slice, slice});

        // Origins for replays: finished (>= 0.5 s old) and recent enough
        // to still be in the server's 64-entry job cache.
        std::vector<const Fresh*> origins;
        for (std::size_t i = fresh.size(); i-- > 0 && origins.size() < 32;) {
            if (fresh[i].due > t - 0.5)
                continue;
            if (pick == resubmit && fresh[i].client == client)
                continue; // resubmits replay another client's job
            origins.push_back(&fresh[i]);
        }

        JsonValue::Object o;
        JobRecord::Kind kind = JobRecord::Kind::list;
        std::string origin_id;
        if ((pick == resubmit || pick == slice) && !origins.empty()) {
            const Fresh& origin = *origins[static_cast<std::size_t>(rng.uniform_int(
                0, static_cast<std::int64_t>(origins.size()) - 1))];
            o = origin.obj;
            origin_id = origin.id;
            if (pick == resubmit) {
                kind = JobRecord::Kind::resubmit;
            } else {
                kind = JobRecord::Kind::slice;
                const auto n = static_cast<std::int64_t>(origin.members);
                const std::int64_t first = rng.uniform_int(0, n - 2);
                const std::int64_t count = rng.uniform_int(1, n - first);
                JsonValue::Object m;
                m.emplace("first", static_cast<std::size_t>(first));
                m.emplace("count", static_cast<std::size_t>(count));
                o["members"] = JsonValue(std::move(m));
            }
        } else {
            // A fresh list; a replay with no eligible origin yet (the
            // first half second) becomes a fresh exact list.
            const auto n = static_cast<std::size_t>(
                deal(sizes[pick == fast ? 1 : 0], {8, 9, 10, 11, 12, 13, 14, 15, 16}));
            JsonValue::Array devs;
            for (std::size_t i = 0; i < n; ++i)
                devs.emplace_back(rng.uniform(-25.0, 25.0));
            o.emplace("job", "deviations");
            o.emplace("parameter", rng.bernoulli(0.5) ? "f0" : "q");
            o.emplace("deviations", std::move(devs));
            if (pick == fast)
                o.emplace("fast_math", true);
            fresh.push_back({t, id, client, o, n});
        }
        o["id"] = id;
        o["client"] = client;
        if (high)
            o["priority"] = 1;
        else
            o.erase("priority");
        JobRecord r = make_record(id, kind, o);
        r.origin_id = origin_id;
        out.push_back({t, false, std::move(r)});
    }
    for (; next_stats < seconds; next_stats += 1.0)
        out.push_back({next_stats, true, {}});
    return out;
}

std::vector<JobRecord> warmup_jobs(const std::string& workload) {
    std::vector<JobRecord> out;
    auto add = [&](const std::string& id, JsonValue::Object o) {
        o.emplace("id", id);
        out.push_back(make_record(id, JobRecord::Kind::warmup, o));
    };
    if (workload == "spice_universe") {
        JsonValue::Object m;
        m.emplace("first", std::size_t{0});
        m.emplace("count", std::size_t{1});
        JsonValue::Object o;
        o.emplace("job", "spice_faults");
        o.emplace("members", std::move(m));
        add("warm-spice", std::move(o));
        return out;
    }
    for (const bool fast : {false, true}) {
        if (fast && workload != "tenant_mix")
            break;
        JsonValue::Object o;
        o.emplace("job", "deviations");
        o.emplace("deviations", JsonValue::Array{JsonValue(-1.0), JsonValue(1.0)});
        if (fast)
            o.emplace("fast_math", true);
        add(fast ? "warm-fast" : "warm-exact", std::move(o));
    }
    return out;
}

} // namespace perfbench
