#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/ids.hpp"
#include "sim/trace.hpp"

namespace rw {
namespace {

struct DemoTag {};
using DemoId = Id<DemoTag>;

// Keeps every trace record it is handed.
struct TraceSink final : sim::Observer {
  TraceSink() : Observer(kConsumesTrace) {}
  void on_trace(std::uint32_t, const sim::TraceRecord& e) override {
    seen.push_back(sim::TraceEvent{e.time, e.kind, e.core,
                                   std::string(e.label), e.a, e.b});
  }
  std::vector<sim::TraceEvent> seen;
};

TEST(Ids, DefaultIsInvalid) {
  DemoId id;
  EXPECT_FALSE(id.is_valid());
  EXPECT_EQ(id, DemoId::invalid());
}

TEST(Ids, ValueAndIndex) {
  DemoId id{7};
  EXPECT_TRUE(id.is_valid());
  EXPECT_EQ(id.value(), 7u);
  EXPECT_EQ(id.index(), 7u);
}

TEST(Ids, Ordering) {
  EXPECT_LT(DemoId{1}, DemoId{2});
  EXPECT_EQ(DemoId{3}, DemoId{3});
  EXPECT_NE(DemoId{3}, DemoId{4});
}

TEST(Ids, Hashable) {
  std::unordered_set<DemoId> set;
  set.insert(DemoId{1});
  set.insert(DemoId{2});
  set.insert(DemoId{1});
  EXPECT_EQ(set.size(), 2u);
}

TEST(Ids, Streaming) {
  std::ostringstream os;
  os << DemoId{5} << " " << DemoId{};
  EXPECT_EQ(os.str(), "#5 <invalid>");
}

TEST(TraceEvent, AllKindsHaveNames) {
  for (int k = 0; k <= static_cast<int>(sim::TraceKind::kCustom); ++k) {
    const char* name =
        sim::trace_kind_name(static_cast<sim::TraceKind>(k));
    EXPECT_STRNE(name, "?");
    EXPECT_GT(std::string(name).size(), 2u);
  }
}

TEST(Tracer, ListenersFireEvenWhenRetentionOff) {
  sim::ObserverList observers;
  sim::Tracer tracer(observers);
  tracer.set_enabled(false);
  TraceSink sink;
  observers.attach(sink);
  tracer.record(0, sim::TraceKind::kCustom, sim::CoreId{}, "x");
  EXPECT_EQ(sink.seen.size(), 1u);
  EXPECT_TRUE(tracer.events().empty());  // nothing retained
  tracer.set_enabled(true);
  tracer.record(1, sim::TraceKind::kCustom, sim::CoreId{}, "y");
  EXPECT_EQ(tracer.events().size(), 1u);
  EXPECT_EQ(sink.seen.size(), 2u);
}

TEST(Tracer, InactiveTracerStoresNothing) {
  sim::Tracer tracer;
  EXPECT_FALSE(tracer.active());
  tracer.record(0, sim::TraceKind::kMemRead, sim::CoreId{0}, "m", 1, 2);
  tracer.record(1, sim::TraceKind::kCustom, sim::CoreId{}, "e", 0, 0);
  EXPECT_TRUE(tracer.events().empty());
  tracer.set_enabled(true);
  EXPECT_TRUE(tracer.active());
}

TEST(Tracer, ListenerSeesEveryRecordWhileDisabled) {
  sim::ObserverList observers;
  sim::Tracer tracer(observers);
  TraceSink sink;
  observers.attach(sink);
  const std::vector<sim::TraceEvent>& seen = sink.seen;
  EXPECT_TRUE(tracer.active());
  const std::string label = "region";
  tracer.record(5, sim::TraceKind::kMemWrite, sim::CoreId{2}, label, 7, 8);
  tracer.record(6, sim::TraceKind::kComputeEnd, sim::CoreId{1}, "blk");
  tracer.record(7, sim::TraceKind::kCustom, sim::CoreId{}, "ev", 1, 0);
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0].time, 5u);
  EXPECT_EQ(seen[0].kind, sim::TraceKind::kMemWrite);
  EXPECT_EQ(seen[0].core, sim::CoreId{2});
  EXPECT_EQ(seen[0].label, "region");
  EXPECT_EQ(seen[0].a, 7u);
  EXPECT_EQ(seen[0].b, 8u);
  EXPECT_EQ(seen[1].label, "blk");
  EXPECT_EQ(seen[2].label, "ev");
  EXPECT_TRUE(tracer.events().empty());
  observers.detach(sink);
  EXPECT_FALSE(tracer.active());
}

// Only observers that consume trace make a tracer active: a counting
// observer (the PMU, the race detector) leaves it off and sees no record.
TEST(Tracer, CountingObserverLeavesTracerInactive) {
  struct Counter final : sim::Observer {
    void on_trace(std::uint32_t, const sim::TraceRecord&) override { ++n; }
    int n = 0;
  };
  sim::ObserverList observers;
  sim::Tracer tracer(observers);
  Counter counter;
  observers.attach(counter);
  EXPECT_FALSE(tracer.active());
  tracer.record(0, sim::TraceKind::kCustom, sim::CoreId{}, "x");
  tracer.set_enabled(true);
  tracer.record(1, sim::TraceKind::kCustom, sim::CoreId{}, "y");
  EXPECT_EQ(counter.n, 0);
  EXPECT_EQ(tracer.events().size(), 1u);
}

// A tracer reports its tile index with every record.
TEST(Tracer, ObserversSeeTheTracerTile) {
  struct TileSink final : sim::Observer {
    TileSink() : Observer(kConsumesTrace) {}
    void on_trace(std::uint32_t tile, const sim::TraceRecord&) override {
      tiles.push_back(tile);
    }
    std::vector<std::uint32_t> tiles;
  };
  sim::ObserverList observers;
  sim::Tracer t0(observers, 0);
  sim::Tracer t3(observers, 3);
  TileSink sink;
  observers.attach(sink);
  t3.record(0, sim::TraceKind::kCustom, sim::CoreId{}, "x");
  t0.record(1, sim::TraceKind::kCustom, sim::CoreId{}, "y");
  EXPECT_EQ(sink.tiles, (std::vector<std::uint32_t>{3, 0}));
}

TEST(Tracer, FilterByKind) {
  sim::Tracer tracer;
  tracer.set_enabled(true);
  tracer.record(0, sim::TraceKind::kMemRead, sim::CoreId{0}, "m");
  tracer.record(1, sim::TraceKind::kMemWrite, sim::CoreId{0}, "m");
  tracer.record(2, sim::TraceKind::kMemRead, sim::CoreId{0}, "m");
  EXPECT_EQ(tracer.filter(sim::TraceKind::kMemRead).size(), 2u);
  EXPECT_EQ(tracer.filter(sim::TraceKind::kMemWrite).size(), 1u);
  tracer.clear();
  EXPECT_TRUE(tracer.events().empty());
}

}  // namespace
}  // namespace rw
