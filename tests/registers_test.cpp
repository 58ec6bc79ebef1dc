#include "sm/registers.h"

#include "sm/snapshot_memory.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

namespace gact::sm {
namespace {

TEST(RegisterFile, ReadYourWrites) {
    RegisterFile regs(3);
    EXPECT_FALSE(regs.read(0).has_value());
    regs.write(0, 42);
    EXPECT_EQ(regs.read(0), Word{42});
    regs.write(0, 43);
    EXPECT_EQ(regs.read(0), Word{43});
    EXPECT_THROW(regs.write(5, 1), precondition_error);
}

TEST(RegisterFile, ClockAdvancesPerStep) {
    RegisterFile regs(2);
    EXPECT_EQ(regs.now(), 0u);
    regs.write(0, 1);
    EXPECT_EQ(regs.now(), 1u);
    regs.read(1);
    EXPECT_EQ(regs.now(), 2u);
}

TEST(RegisterFile, HistoricalValues) {
    RegisterFile regs(1);
    regs.write(0, 10);  // time 1
    regs.write(0, 20);  // time 2
    EXPECT_FALSE(regs.value_at(0, 0).has_value());
    EXPECT_EQ(regs.value_at(0, 1), Word{10});
    EXPECT_EQ(regs.value_at(0, 2), Word{20});
    EXPECT_EQ(regs.value_at(0, 99), Word{20});
}

TEST(DoubleCollect, QuietScanSucceedsInTwoCollects) {
    RegisterFile regs(3);
    regs.write(0, 1);
    regs.write(1, 2);
    const ScanResult scan = double_collect_scan(regs);
    EXPECT_EQ(scan.collects, 2u);
    EXPECT_EQ(scan.snapshot[0], Word{1});
    EXPECT_EQ(scan.snapshot[1], Word{2});
    EXPECT_FALSE(scan.snapshot[2].has_value());
    EXPECT_TRUE(snapshot_is_atomic(regs, scan));
}

TEST(DoubleCollect, AtomicityUnderInterleavedWrites) {
    // Writers interleave with the scanner; every successful scan must
    // still correspond to an instant of the execution.
    std::mt19937 rng(17);
    for (int trial = 0; trial < 200; ++trial) {
        RegisterFile regs(4);
        std::uniform_int_distribution<int> reg(0, 3);
        std::uniform_int_distribution<int> val(0, 9);
        // A prefix of writes.
        for (int i = 0; i < 6; ++i) {
            regs.write(static_cast<std::uint32_t>(reg(rng)),
                       static_cast<Word>(val(rng)));
        }
        const ScanResult scan = double_collect_scan(regs);
        EXPECT_TRUE(snapshot_is_atomic(regs, scan)) << "trial " << trial;
        // More writes after the scan do not invalidate it retroactively.
        regs.write(0, 999);
        EXPECT_TRUE(snapshot_is_atomic(regs, scan));
    }
}

TEST(DoubleCollect, ContendedScanRetries) {
    // Simulate contention: a write lands between the scanner's collects
    // by interleaving manually (collect = size() reads).
    RegisterFile regs(2);
    regs.write(0, 1);
    // First collect.
    regs.read(0);
    regs.read(1);
    // Concurrent write changes register 1.
    regs.write(1, 7);
    // The library scan starts fresh and must converge regardless.
    const ScanResult scan = double_collect_scan(regs);
    EXPECT_EQ(scan.snapshot[1], Word{7});
    EXPECT_TRUE(snapshot_is_atomic(regs, scan));
}

TEST(DoubleCollect, ExhaustionThrows) {
    RegisterFile regs(1);
    // A budget of 1 collect can never double-collect.
    EXPECT_THROW(double_collect_scan(regs, 1), precondition_error);
}

TEST(DoubleCollect, AgreesWithPrimitiveSnapshotMemory) {
    // The register-grounded scan and the primitive SnapshotMemory agree
    // on quiescent states: the primitive is a sound abstraction.
    RegisterFile regs(3);
    std::vector<std::optional<Word>> cells(3);
    SnapshotMemory primitive(cells);
    std::mt19937 rng(5);
    std::uniform_int_distribution<int> p(0, 2);
    std::uniform_int_distribution<int> val(0, 99);
    for (int i = 0; i < 50; ++i) {
        const auto proc = static_cast<std::uint32_t>(p(rng));
        const auto w = static_cast<Word>(val(rng));
        regs.write(proc, w);
        primitive.update(proc, w);
        const ScanResult scan = double_collect_scan(regs);
        EXPECT_TRUE(std::ranges::equal(scan.snapshot, primitive.snapshot()));
    }
}

}  // namespace
}  // namespace gact::sm
