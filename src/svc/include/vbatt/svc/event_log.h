// Crash-recoverable append-only event log.
//
// File layout: an 8-byte magic ("VBEVLOG2"), then zero or more records of
//   u32 payload length | u32 CRC-32 of the length field |
//   u32 CRC-32 of the payload | payload bytes
// all little-endian. Appends are flushed record-by-record, so after a
// crash the file is a clean prefix plus at most one torn record: a header
// or payload cut short at EOF, or a CRC-failing payload that ends exactly
// at EOF. The reader drops such a tail — an expected artifact of dying
// mid-write, never an error. Everything else is corruption, not a crash
// artifact, and is a named error: a complete header whose length fails
// its own CRC (without that check one flipped length bit would read as a
// torn tail and drop every record after it), or a payload CRC failure on
// any record but the last. A version-1 log ("VBEVLOG1", no header CRC) is
// refused by name. Recovery = snapshot + replay of the surviving records
// (service.h owns that protocol; this file only moves bytes).
#pragma once

#include <cstdint>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

namespace vbatt::svc {

inline constexpr std::string_view kEventLogMagic{"VBEVLOG2"};

class EventLogWriter {
 public:
  /// Open `path` for appending. `truncate` starts a fresh log (writing the
  /// magic); otherwise an existing log is continued as-is — the caller is
  /// responsible for having dropped any torn tail first (see
  /// read_event_log / truncate_event_log). Throws on I/O failure.
  EventLogWriter(const std::string& path, bool truncate);

  /// Append one framed record and flush it to the OS. Throws on failure.
  void append(std::string_view payload);

  std::uint64_t records_written() const noexcept { return records_; }
  const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
  std::ofstream out_;
  std::uint64_t records_ = 0;
};

struct EventLogContents {
  std::vector<std::string> records;
  /// Byte offset just past the last clean record (where appends resume).
  std::uint64_t clean_bytes = 0;
  /// Bytes dropped after the clean prefix (0 on a clean log).
  std::uint64_t dropped_bytes = 0;
  bool torn_tail() const noexcept { return dropped_bytes != 0; }
};

/// Read every clean record of `path`. Throws std::runtime_error on a
/// missing file, a bad magic, a version-1 log, a header CRC failure, or a
/// payload CRC failure on any record but the final one (the last two name
/// the path and the record's byte offset) — a torn tail is tolerated and
/// reported, not fatal.
EventLogContents read_event_log(const std::string& path);

/// Cut `path` down to `clean_bytes` (drop a torn tail before reopening
/// the log for append). Throws on I/O failure.
void truncate_event_log(const std::string& path, std::uint64_t clean_bytes);

}  // namespace vbatt::svc
