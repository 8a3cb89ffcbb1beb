// Boundary orientation and curve tracing tests.

#include "monitor/boundary.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.h"
#include "monitor/table1.h"
#include "support/pin.h"

namespace xysig::monitor {
namespace {

TEST(LinearBoundary, OriginSideIsNegative) {
    // Line x + y - 1 = 0; origin gives -1 -> kept as-is.
    const LinearBoundary b(1.0, 1.0, -1.0);
    EXPECT_LT(b.h(0.0, 0.0), 0.0);
    EXPECT_FALSE(b.side(0.2, 0.2));
    EXPECT_TRUE(b.side(0.8, 0.8));
}

TEST(LinearBoundary, FlipsWhenOriginEvaluatesPositive) {
    // Line -x - y + 1 = 0 evaluates +1 at origin -> constructor flips signs.
    const LinearBoundary b(-1.0, -1.0, 1.0);
    EXPECT_LT(b.h(0.0, 0.0), 0.0);
    EXPECT_TRUE(b.side(0.8, 0.8));
}

TEST(LinearBoundary, LineThroughOriginUsesReferencePoint) {
    // Diagonal y = x: reference point (0.05, 0) must be the "0" side.
    const LinearBoundary b(-1.0, 1.0, 0.0); // y - x
    EXPECT_FALSE(b.side(0.5, 0.3)); // below diagonal: origin side
    EXPECT_TRUE(b.side(0.3, 0.5));  // above diagonal
}

TEST(LinearBoundary, DegenerateLineRejected) {
    EXPECT_THROW(LinearBoundary(0.0, 0.0, 1.0), ContractError);
}

TEST(TraceBoundary, RecoversStraightLine) {
    const LinearBoundary b(1.0, 1.0, -1.0); // x + y = 1
    const auto pts = trace_boundary(b, 0.0, 1.0, 11);
    ASSERT_GE(pts.size(), 9u);
    for (const auto& p : pts)
        EXPECT_NEAR(p.x + p.y, 1.0, 1e-6);
}

TEST(TraceBoundary, FindsMultipleBranches) {
    // h = (y - 0.25)*(y - 0.75): two horizontal branches, origin side is
    // outside [0.25, 0.75]... h(0,0) = 0.1875 > 0 so flip orientation by
    // wrapping in a custom boundary.
    class TwoBranch final : public Boundary {
    public:
        double h(double, double y) const override {
            return -((y - 0.25) * (y - 0.75));
        }
        std::unique_ptr<Boundary> clone() const override {
            return std::make_unique<TwoBranch>(*this);
        }
    };
    const TwoBranch b;
    const auto pts = trace_boundary(b, 0.0, 1.0, 5);
    // Two roots per column.
    EXPECT_EQ(pts.size(), 10u);
    for (const auto& p : pts)
        EXPECT_TRUE(std::abs(p.y - 0.25) < 1e-6 || std::abs(p.y - 0.75) < 1e-6);
}

TEST(TraceBoundary, EmptyWhenNoCrossing) {
    const LinearBoundary b(1.0, 1.0, -10.0); // far outside the window
    const auto pts = trace_boundary(b, 0.0, 1.0, 5);
    EXPECT_TRUE(pts.empty());
}

TEST(TraceBoundary, Table1CurveOneIsPinned) {
    // Every traced point of Table I curve 1 over 21 columns, bit for bit.
    const MosCurrentBoundary b(table1_config(1));
    const auto pts = trace_boundary(b, 0.0, 1.0, 21);
    std::vector<double> xy;
    for (const CurvePoint& p : pts)
        xy.insert(xy.end(), {p.x, p.y});
    EXPECT_EQ(pts.size(), 22u);
    EXPECT_EQ(fnv1a64(xy), 0xba172ebd26b10410ULL);
}

TEST(TraceBoundary, RejectsBadWindow) {
    const LinearBoundary b(1.0, 1.0, -1.0);
    EXPECT_THROW((void)trace_boundary(b, 1.0, 0.0, 5), ContractError);
}

} // namespace
} // namespace xysig::monitor
