package main

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"time"

	"beesim/internal/proto"
)

// errRejected marks a typed admission refusal from the server.
var errRejected = errors.New("rejected by admission control")

// session is one long-lived client connection speaking internal/proto,
// the way an agent does, but able to carry frames for many hive IDs.
type session struct {
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer
}

func dialSession(addr, hive string) (*session, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &session{conn: conn, r: bufio.NewReaderSize(conn, 64<<10), w: bufio.NewWriterSize(conn, 64<<10)}
	f, err := s.roundTrip(proto.TypeHello, proto.Hello{HiveID: hive, WakePeriodSeconds: 600, Version: 1}, nil)
	if err == nil {
		err = expect(f, proto.TypeWelcome, &proto.Welcome{})
	}
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("session %s: %w", hive, err)
	}
	return s, nil
}

// roundTrip writes one frame and reads the reply.
func (s *session) roundTrip(t proto.Type, body any, raw []byte) (proto.Frame, error) {
	if err := proto.Encode(s.w, t, body, raw); err != nil {
		return proto.Frame{}, err
	}
	if err := s.w.Flush(); err != nil {
		return proto.Frame{}, err
	}
	return proto.Decode(s.r)
}

// expect checks a reply's type, unmarshals its body into dst (nil for
// body-less frames), and maps reject and error frames to errors.
func expect(f proto.Frame, want proto.Type, dst any) error {
	switch f.Type {
	case want:
		if dst == nil {
			return nil
		}
		return f.Unmarshal(want, dst)
	case proto.TypeReject:
		var rb proto.RejectBody
		if err := f.Unmarshal(proto.TypeReject, &rb); err != nil {
			return err
		}
		return fmt.Errorf("%w: %s", errRejected, rb.Code)
	case proto.TypeError:
		var eb proto.ErrorBody
		if err := f.Unmarshal(proto.TypeError, &eb); err != nil {
			return err
		}
		return fmt.Errorf("server error: %s", eb.Message)
	default:
		return fmt.Errorf("got %v frame, want %v", f.Type, want)
	}
}

// close says goodbye and closes the connection.
func (s *session) close() error {
	f, err := s.roundTrip(proto.TypeBye, nil, nil)
	if err == nil {
		err = expect(f, proto.TypeAck, nil)
	}
	return errors.Join(err, s.conn.Close())
}

// outcomeOf classifies an operation's error.
func outcomeOf(err error) outcome {
	switch {
	case err == nil:
		return opOK
	case errors.Is(err, errRejected):
		return opRejected
	default:
		return opFailed
	}
}

// baseTime anchors every virtual timestamp the harness sends, so equal
// seeds send byte-identical frames.
var baseTime = time.Date(2023, 4, 10, 0, 0, 0, 0, time.UTC)
