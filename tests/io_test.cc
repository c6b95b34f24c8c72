#include "dataflow/io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "api/datastream.h"

namespace streamline {
namespace {

// Polls a bounded source until it reports kExhausted (or fails), the way
// the engine drives it.
Status PollUntilExhausted(SourceFunction* source, SourceContext* ctx) {
  for (;;) {
    Result<SourcePoll> polled = source->Poll(ctx);
    if (!polled.ok()) return polled.status();
    if (*polled == SourcePoll::kExhausted) return Status::Ok();
  }
}

class IoTest : public ::testing::Test {
 protected:
  std::string TempPath(const std::string& name) {
    const auto dir = std::filesystem::temp_directory_path() /
                     "streamline_io_test";
    std::filesystem::create_directories(dir);
    const std::string path = (dir / name).string();
    std::remove(path.c_str());
    paths_.push_back(path);
    return path;
  }

  void TearDown() override {
    for (const auto& p : paths_) std::remove(p.c_str());
  }

  std::vector<std::string> paths_;
};

const Schema kSchema({{"name", DataType::kString},
                      {"count", DataType::kInt64},
                      {"score", DataType::kDouble},
                      {"flag", DataType::kBool}});

TEST_F(IoTest, FormatAndParseRoundTrip) {
  const Record r = MakeRecord(42, Value("abc"), Value(int64_t{-7}),
                              Value(2.5), Value(true));
  const std::string line = FormatCsvLine(r);
  EXPECT_EQ(line, "42,abc,-7,2.5,true");
  auto parsed = ParseCsvLine(line, kSchema);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(*parsed, r);
}

TEST_F(IoTest, NullCellsRoundTrip) {
  const Record r = MakeRecord(1, Value::Null(), Value(int64_t{0}),
                              Value::Null(), Value(false));
  auto parsed = ParseCsvLine(FormatCsvLine(r), kSchema);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, r);
}

TEST_F(IoTest, ParseErrors) {
  EXPECT_FALSE(ParseCsvLine("notanumber,a,1,1.0,true", kSchema).ok());
  EXPECT_FALSE(ParseCsvLine("1,a,xx,1.0,true", kSchema).ok());
  EXPECT_FALSE(ParseCsvLine("1,a,1,yy,true", kSchema).ok());
  EXPECT_FALSE(ParseCsvLine("1,a,1,1.0,maybe", kSchema).ok());
  EXPECT_FALSE(ParseCsvLine("1,a,1,1.0", kSchema).ok());       // too few
  EXPECT_FALSE(ParseCsvLine("1,a,1,1.0,true,x", kSchema).ok());  // too many
}

TEST_F(IoTest, SinkThenSourceThroughJobs) {
  const std::string path = TempPath("roundtrip.csv");
  // Job 1: generate -> CSV file.
  {
    Environment env;
    auto sink = std::make_shared<CsvFileSink>(path);
    env.FromGenerator("gen",
                      [](uint64_t seq) -> std::optional<Record> {
                        if (seq >= 500) return std::nullopt;
                        return MakeRecord(
                            static_cast<Timestamp>(seq),
                            Value("key" + std::to_string(seq % 7)),
                            Value(static_cast<int64_t>(seq)),
                            Value(static_cast<double>(seq) / 2),
                            Value(seq % 2 == 0));
                      })
        .Sink(sink);
    ASSERT_TRUE(env.Execute().ok());
    EXPECT_EQ(sink->lines_written(), 500u);
  }
  // Job 2: CSV file -> keyed count.
  {
    Environment env;
    auto counts =
        env.FromSource("csv", CsvFileSource::Factory(path, kSchema))
            .KeyBy(0)
            .Reduce([](const Record& acc, const Record& in) {
              Record out = acc;
              out.fields[1] =
                  Value(acc.field(1).AsInt64() + in.field(1).AsInt64());
              return out;
            })
            .Collect();
    ASSERT_TRUE(env.Execute().ok());
    EXPECT_EQ(counts->size(), 500u);
  }
}

TEST_F(IoTest, MissingFileReportsNotFound) {
  Environment env;
  env.FromSource("csv",
                 CsvFileSource::Factory("/nonexistent/nope.csv", kSchema))
      .Collect();
  // The source's error Status propagates: the task fails, the job is
  // cancelled, and Execute surfaces the underlying error.
  const Status st = env.Execute();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kNotFound);
  EXPECT_NE(st.message().find("task '"), std::string::npos) << st.ToString();
}

TEST_F(IoTest, SinkSurfacesWriteErrors) {
  // /dev/full opens fine but fails every flush; the sink must surface the
  // stream error instead of silently dropping records.
  if (!std::filesystem::exists("/dev/full")) {
    GTEST_SKIP() << "no /dev/full on this platform";
  }
  Environment env;
  auto sink = std::make_shared<CsvFileSink>("/dev/full");
  env.FromGenerator("gen",
                    [](uint64_t seq) -> std::optional<Record> {
                      if (seq >= 5000) return std::nullopt;
                      return MakeRecord(static_cast<Timestamp>(seq),
                                        Value("payload" + std::to_string(seq)),
                                        Value(static_cast<int64_t>(seq)),
                                        Value(0.5), Value(true));
                    })
      .Sink(sink);
  const Status st = env.Execute();
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("write error"), std::string::npos)
      << st.ToString();
  EXPECT_NE(st.message().find("/dev/full"), std::string::npos)
      << st.ToString();
}

TEST_F(IoTest, SourceOffsetCheckpointable) {
  const std::string path = TempPath("offsets.csv");
  {
    std::ofstream out(path);
    for (int i = 0; i < 10; ++i) {
      out << FormatCsvLine(MakeRecord(i, Value("x"), Value(int64_t{i}),
                                      Value(1.0), Value(true)))
          << "\n";
    }
  }
  CsvFileSource source(path, kSchema);
  // Pretend we consumed 6 lines, snapshot, restore into a new instance.
  class CountingCtx : public SourceContext {
   public:
    explicit CountingCtx(uint64_t stop_after) : stop_after_(stop_after) {}
    bool Emit(Record&& r) override {
      records.push_back(std::move(r));
      return records.size() < stop_after_;
    }
    void EmitWatermark(Timestamp) override {}
    bool IsCancelled() const override { return false; }
    std::vector<Record> records;

   private:
    uint64_t stop_after_;
  };
  CountingCtx first(6);
  ASSERT_TRUE(PollUntilExhausted(&source, &first).ok());
  ASSERT_EQ(first.records.size(), 6u);
  BinaryWriter w;
  ASSERT_TRUE(source.SnapshotState(&w).ok());

  CsvFileSource restored(path, kSchema);
  BinaryReader r(w.buffer());
  ASSERT_TRUE(restored.RestoreState(&r).ok());
  CountingCtx rest(100);
  ASSERT_TRUE(PollUntilExhausted(&restored, &rest).ok());
  // Emit returned false after record 6 BEFORE pos_ was bumped, so the
  // restored source re-reads that record: lines 5..9.
  ASSERT_EQ(rest.records.size(), 5u);
  EXPECT_EQ(rest.records.front().field(1).AsInt64(), 5);
  EXPECT_EQ(rest.records.back().field(1).AsInt64(), 9);
}

TEST_F(IoTest, MalformedLineFailsTheSource) {
  const std::string path = TempPath("bad.csv");
  {
    std::ofstream out(path);
    out << "1,a,1,1.0,true\n";
    out << "2,b,NOT_AN_INT,1.0,false\n";
  }
  CsvFileSource source(path, kSchema);
  class NullCtx : public SourceContext {
   public:
    bool Emit(Record&&) override { return true; }
    void EmitWatermark(Timestamp) override {}
    bool IsCancelled() const override { return false; }
  } ctx;
  const Status st = PollUntilExhausted(&source, &ctx);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find(":1:"), std::string::npos) << st.ToString();
}

}  // namespace
}  // namespace streamline
