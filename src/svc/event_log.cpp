#include "vbatt/svc/event_log.h"

#include <filesystem>
#include <stdexcept>

#include "vbatt/util/wire.h"

namespace vbatt::svc {

namespace {

constexpr std::size_t kHeaderBytes = 12;
constexpr std::string_view kEventLogV1Magic{"VBEVLOG1"};

}  // namespace

EventLogWriter::EventLogWriter(const std::string& path, bool truncate)
    : path_{path} {
  const auto mode = std::ios::binary |
                    (truncate ? std::ios::trunc : std::ios::app);
  out_.open(path, mode);
  if (!out_) {
    throw std::runtime_error{"EventLogWriter: cannot open " + path};
  }
  if (truncate) {
    out_.write(kEventLogMagic.data(),
               static_cast<std::streamsize>(kEventLogMagic.size()));
    out_.flush();
    if (!out_) {
      throw std::runtime_error{"EventLogWriter: cannot write magic to " +
                               path};
    }
  }
}

void EventLogWriter::append(std::string_view payload) {
  util::wire::Writer frame;
  frame.u32(static_cast<std::uint32_t>(payload.size()));
  frame.u32(util::wire::crc32(frame.data().data(), 4));
  frame.u32(util::wire::crc32(payload.data(), payload.size()));
  const std::string& header = frame.data();
  out_.write(header.data(), static_cast<std::streamsize>(header.size()));
  out_.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  out_.flush();
  if (!out_) {
    throw std::runtime_error{"EventLogWriter: append failed on " + path_};
  }
  ++records_;
}

EventLogContents read_event_log(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  if (!in) {
    throw std::runtime_error{"read_event_log: cannot open " + path};
  }
  std::string bytes{std::istreambuf_iterator<char>{in},
                    std::istreambuf_iterator<char>{}};
  const std::string_view magic =
      std::string_view{bytes}.substr(0, kEventLogMagic.size());
  if (magic == kEventLogV1Magic) {
    throw std::runtime_error{"read_event_log: " + path +
                             " is a version-1 event log (VBEVLOG1); this "
                             "build reads VBEVLOG2 only"};
  }
  if (magic != kEventLogMagic) {
    throw std::runtime_error{"read_event_log: " + path +
                             " is not an event log (bad magic)"};
  }

  EventLogContents contents;
  std::size_t pos = kEventLogMagic.size();
  contents.clean_bytes = pos;
  // A header or payload cut short at EOF is a torn tail; the loop stops.
  while (pos + kHeaderBytes <= bytes.size()) {
    const std::string_view frame = std::string_view{bytes}.substr(pos);
    util::wire::Reader header{frame.substr(0, kHeaderBytes)};
    const std::uint32_t length = header.u32();
    const std::uint32_t length_crc = header.u32();
    const std::uint32_t crc = header.u32();
    if (util::wire::crc32(frame.data(), 4) != length_crc) {
      throw std::runtime_error{"read_event_log: " + path +
                               ": corrupt record header at byte offset " +
                               std::to_string(pos)};
    }
    if (length > frame.size() - kHeaderBytes) break;  // torn final record
    const std::string_view payload = frame.substr(kHeaderBytes, length);
    if (util::wire::crc32(payload.data(), payload.size()) != crc) {
      // Only the frame ending exactly at EOF can be a torn write; a bad
      // CRC anywhere else would silently drop accepted events after it.
      if (length == frame.size() - kHeaderBytes) break;
      throw std::runtime_error{"read_event_log: " + path +
                               ": corrupt record at byte offset " +
                               std::to_string(pos)};
    }
    contents.records.emplace_back(payload);
    pos += kHeaderBytes + length;
    contents.clean_bytes = pos;
  }
  contents.dropped_bytes = bytes.size() - contents.clean_bytes;
  return contents;
}

void truncate_event_log(const std::string& path, std::uint64_t clean_bytes) {
  std::error_code ec;
  std::filesystem::resize_file(path, clean_bytes, ec);
  if (ec) {
    throw std::runtime_error{"truncate_event_log: cannot truncate " + path +
                             ": " + ec.message()};
  }
}

}  // namespace vbatt::svc
