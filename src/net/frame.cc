#include "net/frame.h"

#include <sys/socket.h>

#include "common/codec.h"
#include "common/fault_injection.h"

namespace hpm {

Status SendFrame(Socket& socket, const std::string& payload,
                 Deadline deadline) {
  const std::string frame = codec::EncodeFrame(payload);

  const Status fault = HPM_FAULT_HIT("net/send");
  if (!fault.ok()) {
    // Model the torn frame the site stands for: half the frame reaches
    // the peer, then the connection dies mid-stream. The peer must see
    // kDataLoss, never a short frame silently accepted.
    (void)socket.SendAll(frame.data(), frame.size() / 2, deadline);
    ::shutdown(socket.fd(), SHUT_RDWR);
    socket.Close();
    return fault;
  }
  return socket.SendAll(frame.data(), frame.size(), deadline);
}

StatusOr<std::string> RecvFrame(Socket& socket, Deadline deadline,
                                bool* clean_eof) {
  if (clean_eof != nullptr) *clean_eof = false;
  HPM_RETURN_IF_ERROR(HPM_FAULT_HIT("net/recv"));
  char header_bytes[codec::kFrameHeaderBytes];
  HPM_RETURN_IF_ERROR(socket.RecvAll(header_bytes, sizeof(header_bytes),
                                     deadline, clean_eof));
  const codec::FrameHeader header = codec::ParseFrameHeader(header_bytes);
  if (header.length > kMaxNetPayloadBytes) {
    return Status::DataLoss("implausible frame length " +
                            std::to_string(header.length));
  }
  std::string payload(header.length, '\0');
  if (header.length > 0) {
    // A disconnect mid-payload is a torn frame: RecvAll reports the
    // clean-close case as kDataLoss here because bytes were consumed.
    HPM_RETURN_IF_ERROR(
        socket.RecvAll(payload.data(), header.length, deadline, nullptr));
  }
  if (!header.Verifies(payload.data())) {
    return Status::DataLoss("frame checksum mismatch");
  }
  return payload;
}

}  // namespace hpm
