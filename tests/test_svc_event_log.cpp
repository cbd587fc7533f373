#include "vbatt/svc/event_log.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace vbatt::svc {
namespace {

std::filesystem::path temp_log(const char* tag) {
  return std::filesystem::temp_directory_path() /
         ("vbatt_evlog_" + std::to_string(::getpid()) + "_" + tag + ".log");
}

std::vector<std::string> sample_records() {
  return {"alpha", std::string{"\x00\x01\x02", 3}, "", "a longer payload",
          std::string(1000, 'z')};
}

std::string slurp(const std::filesystem::path& path) {
  std::ifstream in{path, std::ios::binary};
  std::string all{std::istreambuf_iterator<char>{in},
                  std::istreambuf_iterator<char>{}};
  return all;
}

void spill(const std::filesystem::path& path, const std::string& bytes) {
  std::ofstream out{path, std::ios::binary | std::ios::trunc};
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(SvcEventLog, RoundTripsRecords) {
  const auto path = temp_log("roundtrip");
  {
    EventLogWriter w{path.string(), /*truncate=*/true};
    for (const std::string& r : sample_records()) w.append(r);
    EXPECT_EQ(w.records_written(), sample_records().size());
  }
  const EventLogContents contents = read_event_log(path.string());
  EXPECT_EQ(contents.records, sample_records());
  EXPECT_FALSE(contents.torn_tail());
  EXPECT_EQ(contents.clean_bytes, std::filesystem::file_size(path));
  std::filesystem::remove(path);
}

TEST(SvcEventLog, AppendContinuesExistingLog) {
  const auto path = temp_log("continue");
  {
    EventLogWriter w{path.string(), true};
    w.append("one");
  }
  {
    EventLogWriter w{path.string(), /*truncate=*/false};
    w.append("two");
  }
  const EventLogContents contents = read_event_log(path.string());
  EXPECT_EQ(contents.records, (std::vector<std::string>{"one", "two"}));
  std::filesystem::remove(path);
}

TEST(SvcEventLog, TornTailIsDroppedNotFatal) {
  const auto path = temp_log("torn");
  {
    EventLogWriter w{path.string(), true};
    for (const std::string& r : sample_records()) w.append(r);
  }
  const std::string full = slurp(path);
  const EventLogContents clean = read_event_log(path.string());

  // Chop the file at every byte boundary inside the final record: the
  // reader must keep the clean prefix and report the tail as dropped.
  for (std::size_t cut = clean.clean_bytes - 1; cut > full.size() - 1008;
       cut -= 97) {
    spill(path, full.substr(0, cut));
    const EventLogContents torn = read_event_log(path.string());
    EXPECT_EQ(torn.records.size(), sample_records().size() - 1)
        << "cut at byte " << cut;
    EXPECT_TRUE(torn.torn_tail());
    EXPECT_EQ(torn.clean_bytes + torn.dropped_bytes, cut);
  }
  std::filesystem::remove(path);
}

TEST(SvcEventLog, CorruptPayloadStopsAtCrc) {
  const auto path = temp_log("crc");
  {
    EventLogWriter w{path.string(), true};
    w.append("first record");
    w.append("second record");
  }
  std::string bytes = slurp(path);
  // Flip one bit in the *last* record's payload (the final byte).
  bytes.back() = static_cast<char>(bytes.back() ^ 0x40);
  spill(path, bytes);
  const EventLogContents contents = read_event_log(path.string());
  EXPECT_EQ(contents.records, (std::vector<std::string>{"first record"}));
  EXPECT_TRUE(contents.torn_tail());
  std::filesystem::remove(path);
}

TEST(SvcEventLog, MidLogCorruptionIsANamedError) {
  const auto path = temp_log("midcrc");
  {
    EventLogWriter w{path.string(), true};
    w.append("first record");
    w.append("second record");
    w.append("third record");
  }
  std::string bytes = slurp(path);
  // Flip one bit in the *first* record's payload (after its 12-byte
  // header): its frame ends well before EOF, so this cannot be a torn
  // write.
  const std::size_t first = kEventLogMagic.size();
  bytes[first + 12] = static_cast<char>(bytes[first + 12] ^ 0x40);
  spill(path, bytes);
  try {
    (void)read_event_log(path.string());
    ADD_FAILURE() << "mid-log corruption was not reported";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path.string()), std::string::npos) << what;
    EXPECT_NE(what.find("byte offset " + std::to_string(first)),
              std::string::npos)
        << what;
  }
  std::filesystem::remove(path);
}

TEST(SvcEventLog, FlippedLengthBitInRecordOneIsANamedError) {
  const auto path = temp_log("hdrcrc");
  {
    EventLogWriter w{path.string(), true};
    w.append("first record");
    w.append("second record");
    w.append("third record");
  }
  std::string bytes = slurp(path);
  // A high bit of record 1's length: the frame now claims to run past
  // EOF. Without a header check that reads as a torn tail and silently
  // drops every record.
  const std::size_t first = kEventLogMagic.size();
  bytes[first + 2] = static_cast<char>(bytes[first + 2] ^ 0x01);
  spill(path, bytes);
  try {
    const EventLogContents contents = read_event_log(path.string());
    ADD_FAILURE() << "header corruption read as records="
                  << contents.records.size();
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("corrupt record header at byte offset " +
                        std::to_string(first)),
              std::string::npos)
        << what;
  }
  std::filesystem::remove(path);
}

TEST(SvcEventLog, HeaderCutShortAtEofIsATornTail) {
  const auto path = temp_log("tornhdr");
  {
    EventLogWriter w{path.string(), true};
    w.append("keep me");
  }
  const std::uint64_t clean = std::filesystem::file_size(path);
  {
    EventLogWriter w{path.string(), /*truncate=*/false};
    w.append("tear my header");
  }
  const std::string full = slurp(path);
  // Every cut inside the second record's 12-byte header, and the header
  // complete with its payload missing.
  for (std::size_t cut = clean + 1; cut <= clean + 12; ++cut) {
    spill(path, full.substr(0, cut));
    const EventLogContents torn = read_event_log(path.string());
    EXPECT_EQ(torn.records, (std::vector<std::string>{"keep me"}))
        << "cut at byte " << cut;
    EXPECT_EQ(torn.clean_bytes, clean);
    EXPECT_EQ(torn.dropped_bytes, cut - clean);
  }
  std::filesystem::remove(path);
}

TEST(SvcEventLog, RefusesVersionOneLogByName) {
  const auto path = temp_log("v1");
  // "VBEVLOG1", then one v1 frame: u32 length | u32 CRC | payload.
  spill(path, std::string{"VBEVLOG1"} + std::string{"\x02\0\0\0", 4} +
                  std::string(4, '\0') + "hi");
  try {
    (void)read_event_log(path.string());
    ADD_FAILURE() << "a version-1 log was read";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string{e.what()}.find("version-1 event log"),
              std::string::npos)
        << e.what();
  }
  std::filesystem::remove(path);
}

TEST(SvcEventLog, TruncateDropsTornTailForReopen) {
  const auto path = temp_log("truncate");
  {
    EventLogWriter w{path.string(), true};
    w.append("keep me");
    w.append("tear me");
  }
  std::string bytes = slurp(path);
  spill(path, bytes.substr(0, bytes.size() - 3));

  const EventLogContents torn = read_event_log(path.string());
  ASSERT_TRUE(torn.torn_tail());
  truncate_event_log(path.string(), torn.clean_bytes);
  EXPECT_EQ(std::filesystem::file_size(path), torn.clean_bytes);

  // The log is clean again and accepts appends.
  {
    EventLogWriter w{path.string(), /*truncate=*/false};
    w.append("after recovery");
  }
  const EventLogContents healed = read_event_log(path.string());
  EXPECT_EQ(healed.records,
            (std::vector<std::string>{"keep me", "after recovery"}));
  EXPECT_FALSE(healed.torn_tail());
  std::filesystem::remove(path);
}

TEST(SvcEventLog, RejectsMissingFileAndBadMagic) {
  EXPECT_THROW((void)read_event_log("/nonexistent/vbatt.evlog"),
               std::runtime_error);
  const auto path = temp_log("magic");
  spill(path, "NOTALOG1 some bytes");
  EXPECT_THROW((void)read_event_log(path.string()), std::runtime_error);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace vbatt::svc
