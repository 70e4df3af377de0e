#include "socket.hh"

#include <cerrno>
#include <cstring>
#include <utility>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "serve/error.hh"

namespace wcnn {
namespace serve {
namespace net {

namespace {

[[noreturn]] void
throwErrno(const std::string &what)
{
    throw ServeError(what + ": " + std::strerror(errno));
}

/** Resolve the two address spellings the server supports. */
in_addr_t
resolveHost(const std::string &host)
{
    if (host.empty() || host == "localhost")
        return htonl(INADDR_LOOPBACK);
    in_addr addr{};
    if (inet_pton(AF_INET, host.c_str(), &addr) != 1)
        throw ServeError("cannot parse IPv4 address '" + host + "'");
    return addr.s_addr;
}

} // namespace

// TcpStream ----------------------------------------------------------

TcpStream::TcpStream(int descriptor) : fd(descriptor)
{
}

TcpStream::TcpStream(TcpStream &&other) noexcept
    : fd(std::exchange(other.fd, -1))
{
}

TcpStream &
TcpStream::operator=(TcpStream &&other) noexcept
{
    if (this != &other) {
        close();
        fd = std::exchange(other.fd, -1);
    }
    return *this;
}

TcpStream::~TcpStream()
{
    close();
}

TcpStream
TcpStream::connect(const std::string &host, std::uint16_t port)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        throwErrno("socket");
    TcpStream stream(fd);

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = resolveHost(host);
    if (::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                  sizeof(addr)) != 0)
        throwErrno("connect to " + host + ":" + std::to_string(port));

    // Request/response round trips: Nagle only adds latency here.
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return stream;
}

ReadStatus
TcpStream::readSome(std::uint8_t *buffer, std::size_t capacity,
                    std::size_t &bytes_read, int timeout_ms)
{
    bytes_read = 0;
    if (fd < 0)
        return ReadStatus::Eof;
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = POLLIN;
    int ready = 0;
    do {
        ready = ::poll(&pfd, 1, timeout_ms);
    } while (ready < 0 && errno == EINTR);
    if (ready < 0)
        throwErrno("poll");
    if (ready == 0)
        return ReadStatus::Timeout;

    ssize_t n = 0;
    do {
        n = ::recv(fd, buffer, capacity, 0);
    } while (n < 0 && errno == EINTR);
    if (n < 0)
        throwErrno("recv");
    if (n == 0)
        return ReadStatus::Eof;
    bytes_read = static_cast<std::size_t>(n);
    return ReadStatus::Data;
}

void
TcpStream::writeAll(const void *data, std::size_t size)
{
    if (fd < 0)
        throw ServeError("write on a closed stream");
    const std::uint8_t *p = static_cast<const std::uint8_t *>(data);
    while (size > 0) {
        ssize_t n = 0;
        do {
            n = ::send(fd, p, size, MSG_NOSIGNAL);
        } while (n < 0 && errno == EINTR);
        if (n <= 0)
            throwErrno("send");
        p += n;
        size -= static_cast<std::size_t>(n);
    }
}

void
TcpStream::setNonBlocking(bool enabled)
{
    if (fd < 0)
        throw ServeError("setNonBlocking on a closed stream");
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags < 0)
        throwErrno("fcntl(F_GETFL)");
    const int wanted =
        enabled ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
    if (wanted != flags && ::fcntl(fd, F_SETFL, wanted) < 0)
        throwErrno("fcntl(F_SETFL)");
}

NbStatus
TcpStream::readNb(std::uint8_t *buffer, std::size_t capacity,
                  std::size_t &bytes_read)
{
    bytes_read = 0;
    if (fd < 0)
        return NbStatus::Eof;
    ssize_t n = 0;
    do {
        n = ::recv(fd, buffer, capacity, 0);
    } while (n < 0 && errno == EINTR);
    if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            return NbStatus::WouldBlock;
        throwErrno("recv");
    }
    if (n == 0)
        return NbStatus::Eof;
    bytes_read = static_cast<std::size_t>(n);
    return NbStatus::Ready;
}

NbStatus
TcpStream::writeNb(const void *data, std::size_t size,
                   std::size_t &bytes_written)
{
    bytes_written = 0;
    if (fd < 0)
        throw ServeError("write on a closed stream");
    ssize_t n = 0;
    do {
        n = ::send(fd, data, size, MSG_NOSIGNAL);
    } while (n < 0 && errno == EINTR);
    if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            return NbStatus::WouldBlock;
        throwErrno("send");
    }
    bytes_written = static_cast<std::size_t>(n);
    return NbStatus::Ready;
}

bool
TcpStream::waitWritable(int timeout_ms)
{
    if (fd < 0)
        throw ServeError("waitWritable on a closed stream");
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = POLLOUT;
    int ready = 0;
    do {
        ready = ::poll(&pfd, 1, timeout_ms);
    } while (ready < 0 && errno == EINTR);
    if (ready < 0)
        throwErrno("poll");
    return ready > 0;
}

void
TcpStream::shutdownWrite()
{
    if (fd >= 0)
        ::shutdown(fd, SHUT_WR);
}

void
TcpStream::close()
{
    if (fd >= 0) {
        ::close(fd);
        fd = -1;
    }
}

// TcpListener --------------------------------------------------------

TcpListener::TcpListener(const std::string &host, std::uint16_t port,
                         int backlog)
{
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        throwErrno("socket");

    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = resolveHost(host);
    if (::bind(fd, reinterpret_cast<const sockaddr *>(&addr),
               sizeof(addr)) != 0) {
        const int saved = errno;
        ::close(fd);
        fd = -1;
        errno = saved;
        throwErrno("bind " + host + ":" + std::to_string(port));
    }
    if (::listen(fd, backlog) != 0) {
        const int saved = errno;
        ::close(fd);
        fd = -1;
        errno = saved;
        throwErrno("listen");
    }

    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(fd, reinterpret_cast<sockaddr *>(&bound), &len) != 0)
        throwErrno("getsockname");
    boundPort = ntohs(bound.sin_port);
}

TcpListener::~TcpListener()
{
    close();
}

TcpStream
TcpListener::accept(int timeout_ms)
{
    // Load the descriptor once: close() may hand it off concurrently,
    // and the EBADF/poll-error tolerance below absorbs losing that
    // race mid-call.
    const int lfd = fd.load(std::memory_order_acquire);
    if (lfd < 0)
        return TcpStream();
    pollfd pfd{};
    pfd.fd = lfd;
    pfd.events = POLLIN;
    int ready = 0;
    do {
        ready = ::poll(&pfd, 1, timeout_ms);
    } while (ready < 0 && errno == EINTR);
    if (ready < 0) {
        if (errno == EBADF)
            return TcpStream();
        throwErrno("poll");
    }
    if (ready == 0 || fd.load(std::memory_order_acquire) != lfd)
        return TcpStream();

    int conn = -1;
    do {
        conn = ::accept(lfd, nullptr, nullptr);
    } while (conn < 0 && errno == EINTR);
    if (conn < 0) {
        // The listener may race close(); report an invalid stream and
        // let the accept loop observe the stop flag.
        if (errno == EBADF || errno == EINVAL || errno == ECONNABORTED)
            return TcpStream();
        throwErrno("accept");
    }
    const int one = 1;
    ::setsockopt(conn, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return TcpStream(conn);
}

void
TcpListener::close()
{
    // shutdown() wakes a poller blocked on this descriptor before the
    // close releases the port for rebinding.
    const int lfd = fd.exchange(-1, std::memory_order_acq_rel);
    if (lfd >= 0) {
        ::shutdown(lfd, SHUT_RDWR);
        ::close(lfd);
    }
}

} // namespace net
} // namespace serve
} // namespace wcnn
