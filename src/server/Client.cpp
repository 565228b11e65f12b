//===- server/Client.cpp --------------------------------------------------===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//

#include "server/Client.h"

using namespace lsra;
using namespace lsra::server;

Client Client::connectUnix(const std::string &Path, std::string &Err) {
  Client C;
  C.Sock = Socket::connectUnix(Path, Err);
  return C;
}

Client Client::connectTcp(const std::string &Host, uint16_t Port,
                          std::string &Err) {
  Client C;
  C.Sock = Socket::connectTcp(Host, Port, Err);
  return C;
}

bool Client::roundTrip(FrameType Type, const std::string &Payload,
                       FrameType &ReplyType, std::string &Reply,
                       int TimeoutMs, std::string &Err) {
  uint32_t Id = NextId++;
  if (!Sock.sendFrame(Id, Type, Payload, Err))
    return false;
  while (true) {
    uint32_t GotId = 0;
    Socket::RecvStatus St =
        Sock.recvFrame(GotId, ReplyType, Reply, TimeoutMs, Err);
    if (St == Socket::RecvStatus::Timeout) {
      Err = std::string("timed out waiting for a reply to ") +
            frameTypeName(Type);
      return false;
    }
    if (St == Socket::RecvStatus::Closed) {
      Err = "server closed the connection";
      return false;
    }
    if (St == Socket::RecvStatus::Error)
      return false;
    if (GotId == Id)
      return true;
  }
}

bool Client::compile(const CompileRequest &Req, CompileResponse &Out,
                     std::string &Err, int TimeoutMs) {
  FrameType Type;
  std::string Reply;
  return roundTrip(FrameType::CompileRequest, encodeCompileRequest(Req), Type,
                   Reply, TimeoutMs, Err) &&
         decodeCompileResponse(Type, Reply, Out, Err);
}

bool Client::stats(const std::string &Format, std::string &Out,
                   std::string &Err, int TimeoutMs) {
  StatsRequest Req;
  Req.Format = Format;
  FrameType Type;
  std::string Reply;
  if (!roundTrip(FrameType::StatsRequest, encodeStatsRequest(Req), Type,
                 Reply, TimeoutMs, Err))
    return false;
  if (Type != FrameType::StatsReply) {
    Err = std::string("unexpected ") + frameTypeName(Type) +
          " reply to stats request: " + Reply;
    return false;
  }
  Out = std::move(Reply);
  return true;
}

bool Client::ping(std::string &Err, int TimeoutMs) {
  FrameType Type;
  std::string Reply;
  return roundTrip(FrameType::Ping, "", Type, Reply, TimeoutMs, Err) &&
         Type == FrameType::Pong;
}
