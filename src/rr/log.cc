#include "rr/log.h"

#include <cstring>
#include <fcntl.h>
#include <unistd.h>

#include "common/hash.h"

namespace varan::rr {

namespace {

/** The v3 record checksum: CRC32C over header-before-crc, then the
 *  payload. */
std::uint32_t
recordChecksum(const RecordHeader &rec, const void *payload)
{
    std::uint32_t crc = crc32c(&rec, kRecordCrcOffset);
    if (rec.payload_size > 0 && payload != nullptr)
        crc = crc32c(payload, rec.payload_size, crc);
    return crc;
}

/** The v2 record checksum, kept only to verify legacy logs: FNV-1a
 *  over the same bytes in the same order. */
std::uint32_t
recordChecksumV2(const RecordHeader &rec, const void *payload)
{
    std::uint32_t hash = 2166136261u;
    auto mix = [&hash](const void *data, std::size_t len) {
        const auto *bytes = static_cast<const std::uint8_t *>(data);
        for (std::size_t i = 0; i < len; ++i) {
            hash ^= bytes[i];
            hash *= 16777619u;
        }
    };
    mix(&rec, kRecordCrcOffset);
    if (rec.payload_size > 0 && payload != nullptr)
        mix(payload, rec.payload_size);
    return hash;
}

} // namespace

void
appendRecord(std::vector<std::uint8_t> &out, std::uint32_t tuple,
             const ring::Event &event, const void *payload,
             std::size_t payload_size)
{
    RecordHeader rec = {};
    rec.tuple = tuple;
    rec.payload_size = static_cast<std::uint32_t>(payload_size);
    rec.event = event;
    rec.record_crc = recordChecksum(rec, payload);

    const auto *bytes = reinterpret_cast<const std::uint8_t *>(&rec);
    out.insert(out.end(), bytes, bytes + sizeof(rec));
    if (payload_size > 0) {
        const auto *p = static_cast<const std::uint8_t *>(payload);
        out.insert(out.end(), p, p + payload_size);
    }
}

// --- LogReader -----------------------------------------------------------

LogReader::~LogReader() { close(); }

Status
LogReader::open(const std::string &path)
{
    close();
    file_ = std::fopen(path.c_str(), "rb");
    if (!file_)
        return Status::fromErrno();

    LogHeader header = {};
    if (std::fread(&header, sizeof(header), 1, file_) != 1 ||
        std::memcmp(header.magic, kLogMagic, sizeof(kLogMagic)) != 0) {
        close();
        return Status(Errno{EPROTO});
    }
    if (header.version != 1 && header.version != 2 &&
        header.version != kLogVersion) {
        // Unknown version: reject decodably instead of parsing the
        // record bytes with the wrong layout.
        close();
        return Status(Errno{ENOTSUP});
    }
    version_ = header.version;
    done_ = false;
    truncated_ = false;
    return Status::ok();
}

LogReader::Next
LogReader::next(LogRecord *out)
{
    if (!file_ || done_)
        return truncated_ ? Next::Truncated : Next::End;

    RecordHeader rec = {};
    const std::size_t header_size =
        version_ == 1 ? sizeof(RecordHeaderV1) : sizeof(RecordHeader);
    const std::size_t got = std::fread(&rec, 1, header_size, file_);
    if (got != header_size) {
        done_ = true;
        truncated_ = got != 0; // a partial header is a torn tail
        return truncated_ ? Next::Truncated : Next::End;
    }

    out->tuple = rec.tuple;
    out->event = rec.event;
    out->payload.resize(rec.payload_size);
    if (rec.payload_size > 0 &&
        std::fread(out->payload.data(), 1, rec.payload_size, file_) !=
            rec.payload_size) {
        done_ = true;
        truncated_ = true;
        return Next::Truncated;
    }
    if (version_ >= 2) {
        const void *payload =
            out->payload.empty() ? nullptr : out->payload.data();
        const std::uint32_t crc = version_ == 2
                                      ? recordChecksumV2(rec, payload)
                                      : recordChecksum(rec, payload);
        if (crc != rec.record_crc) {
            // A record that fails its checksum ends the valid prefix;
            // everything already yielded stays good.
            done_ = true;
            truncated_ = true;
            return Next::Truncated;
        }
    }
    return Next::Record;
}

Status
LogReader::rewind()
{
    if (!file_)
        return Status(Errno{EBADF});
    if (std::fseek(file_, sizeof(LogHeader), SEEK_SET) != 0)
        return Status::fromErrno();
    done_ = false;
    truncated_ = false;
    return Status::ok();
}

void
LogReader::close()
{
    if (file_) {
        std::fclose(file_);
        file_ = nullptr;
    }
    version_ = 0;
    done_ = false;
    truncated_ = false;
}

// --- LogWriter -----------------------------------------------------------

LogWriter::~LogWriter()
{
    if (fd_ >= 0)
        close();
}

Status
LogWriter::latch(int err)
{
    if (errno_ == 0)
        errno_ = err;
    return Status(Errno{errno_});
}

Status
LogWriter::open(const std::string &path)
{
    fd_ = ::open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
    if (fd_ < 0)
        return latch(errno);
    path_ = path;

    LogHeader header = {};
    std::memcpy(header.magic, kLogMagic, sizeof(kLogMagic));
    header.version = kLogVersion;
    if (!writeFileFull(fd_, &header, sizeof(header))) {
        const int err = errno != 0 ? errno : EIO;
        discard();
        return latch(err);
    }
    bytes_written_ += sizeof(header);
    return Status::ok();
}

Status
LogWriter::append(std::uint32_t tuple, const ring::Event &event,
                  const void *payload, std::size_t payload_size)
{
    if (errno_ != 0)
        return Status(Errno{errno_});
    if (fd_ < 0)
        return Status(Errno{EBADF});
    appendRecord(buf_, tuple, event, payload, payload_size);
    ++records_;
    if (buf_.size() > flush_threshold_)
        return flush();
    return Status::ok();
}

Status
LogWriter::flush()
{
    if (errno_ != 0)
        return Status(Errno{errno_});
    if (buf_.empty())
        return Status::ok();
    if (!writeFileFull(fd_, buf_.data(), buf_.size()))
        return latch(errno != 0 ? errno : EIO);
    bytes_written_ += buf_.size();
    buf_.clear();
    return Status::ok();
}

Status
LogWriter::close()
{
    Status flushed = flush();
    if (fd_ >= 0) {
        if (::close(fd_) != 0 && errno_ == 0)
            errno_ = errno;
        fd_ = -1;
    }
    if (!flushed.isOk())
        return flushed;
    return errno_ == 0 ? Status::ok() : Status(Errno{errno_});
}

void
LogWriter::discard()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
    if (!path_.empty())
        ::unlink(path_.c_str());
    buf_.clear();
}

// --- readLog -------------------------------------------------------------

Result<LogContents>
readLog(const std::string &path)
{
    LogReader reader;
    Status opened = reader.open(path);
    if (!opened.isOk())
        return Result<LogContents>(Errno{opened.error().code});

    LogContents contents;
    contents.version = reader.version();
    LogRecord record;
    for (;;) {
        LogReader::Next n = reader.next(&record);
        if (n == LogReader::Next::Record) {
            contents.records.push_back(std::move(record));
            continue;
        }
        contents.truncated = n == LogReader::Next::Truncated;
        break;
    }
    return contents;
}

} // namespace varan::rr
