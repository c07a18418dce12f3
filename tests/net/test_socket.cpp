// Socket shim edge cases: a write to a peer that has closed must fail that
// connection only. Without MSG_NOSIGNAL the kernel raises SIGPIPE, whose
// default action kills the whole process (a rapteed serving other clients).
#include <gtest/gtest.h>

#include <sys/socket.h>

#include <cstdint>
#include <vector>

#include "net/socket.hpp"

namespace raptee::net {
namespace {

TEST(Socket, WriteToClosedPeerIsAHardErrorNotASignal) {
  int ends[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, ends), 0);
  Fd mine(ends[0]);
  { const Fd peer(ends[1]); }  // the peer closes while a reply is due

  const std::vector<std::uint8_t> reply(64, 0x5A);
  EXPECT_EQ(write_some(mine.get(), reply.data(), reply.size()), -2);
  EXPECT_EQ(write_some(mine.get(), reply.data(), reply.size()), -2)
      << "a second write must not signal either";
}

TEST(Socket, WriteToOpenPeerDelivers) {
  int ends[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, ends), 0);
  Fd mine(ends[0]);
  Fd peer(ends[1]);
  set_nonblocking(peer.get());
  const std::uint8_t msg[3] = {1, 2, 3};
  ASSERT_EQ(write_some(mine.get(), msg, sizeof msg), 3);
  std::uint8_t got[8];
  ASSERT_EQ(read_some(peer.get(), got, sizeof got), 3);
  EXPECT_EQ(got[2], 3);
}

}  // namespace
}  // namespace raptee::net
