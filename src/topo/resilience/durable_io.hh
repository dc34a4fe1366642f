/**
 * @file
 * Durable file primitives of the profile store: full-buffer writes with fault-injection hooks, fsync
 * of files and directories, and the atomic-replace idiom done right.
 *
 * The classic atomic-replace bug is rename-without-parent-dir-fsync:
 * write tmp, fsync tmp, rename — and then a crash loses the *rename*,
 * because the directory entry was never made durable. atomicReplace()
 * closes that gap (tmp write + fsync, rename, parent directory fsync)
 * and counts the directory syncs under `store.dir_fsyncs` so tests can
 * assert the discipline is actually followed.
 *
 * Every helper threads the seeded fault plans: reads honour
 * read_short/bitflip/throw_io, writes honour write_short (torn
 * write)/throw_io, and the crash-point sites documented in
 * DESIGN.md §12 are embedded at the rename boundaries.
 */

#ifndef TOPO_RESILIENCE_DURABLE_IO_HH
#define TOPO_RESILIENCE_DURABLE_IO_HH

#include <cstddef>
#include <cstdint>
#include <string>

namespace topo
{

/** RAII POSIX file descriptor. */
class Fd
{
  public:
    Fd() = default;
    explicit Fd(int fd) : fd_(fd) {}
    ~Fd() { close(); }
    Fd(const Fd &) = delete;
    Fd &operator=(const Fd &) = delete;
    Fd(Fd &&other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
    Fd &
    operator=(Fd &&other) noexcept
    {
        if (this != &other) {
            close();
            fd_ = other.fd_;
            other.fd_ = -1;
        }
        return *this;
    }

    /** Raw descriptor; -1 when not open. */
    int get() const { return fd_; }
    bool valid() const { return fd_ >= 0; }
    /** Close now (idempotent). */
    void close();

  private:
    int fd_ = -1;
};

/**
 * Open @p path for appending (created with 0644 when absent). Throws
 * a user-error TopoError on failure.
 */
Fd openAppend(const std::string &path);

/** Open @p path read-only; throws a user-error TopoError on failure. */
Fd openRead(const std::string &path);

/**
 * Write the whole buffer at the fd's current offset. Injection: the
 * write_short fault writes only a prefix and then raises a
 * corrupt-input error for @p site (a torn write: the prefix stays on
 * disk); throw_io raises before anything is written.
 */
void writeAll(const Fd &fd, const char *data, std::size_t n,
              const char *site);

/**
 * fsync the descriptor; counts `store.fsyncs`. Throws a corrupt-input
 * TopoError when the kernel reports failure (a lost write).
 */
void fsyncFd(const Fd &fd, const char *site);

/**
 * fsync the directory @p dir so renames/creates inside it are
 * durable; counts `store.dir_fsyncs`.
 */
void fsyncDir(const std::string &dir, const char *site);

/** Truncate the file behind @p fd to @p size bytes and fsync it. */
void truncateFd(const Fd &fd, std::uint64_t size, const char *site);

/**
 * Read a whole file into a string. Injection: throw_io raises,
 * read_short truncates the returned bytes, bitflip corrupts them —
 * exactly the failure surface a store open must survive.
 */
std::string readFileBytes(const std::string &path, const char *site);

/**
 * Atomically replace @p path with @p bytes: write "<path>.tmp", fsync
 * it, rename over @p path, fsync the parent directory. Crash-point
 * sites "<site>.pre_rename" and "<site>.post_rename" bracket the
 * rename, so the crash matrix can pin either outcome.
 */
void atomicReplace(const std::string &path, const std::string &bytes,
                   const char *site);

/** Parent directory of a path ("." when the path has no separator). */
std::string parentDir(const std::string &path);

} // namespace topo

#endif // TOPO_RESILIENCE_DURABLE_IO_HH
