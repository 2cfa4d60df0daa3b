package hivenet

import (
	"net"
	"testing"
	"time"

	"beesim/internal/hive"
	"beesim/internal/proto"
)

// These tests throw malformed traffic at the server and verify it sheds
// the bad session without disturbing well-behaved agents.

func rawDial(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	return conn
}

func TestServerRejectsGarbageHandshake(t *testing.T) {
	s := startServer(t, DefaultServerConfig())
	conn := rawDial(t, s.Addr())
	if _, err := conn.Write([]byte("GET / HTTP/1.1\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	// The server must drop the connection promptly.
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 256)
	for {
		if _, err := conn.Read(buf); err != nil {
			break // closed or deadline: either way the session ended
		}
	}
	// And a legitimate agent still gets served.
	agent, err := Dial(s.Addr(), DefaultAgentConfig("after-garbage"))
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()
	if _, err := agent.RunCycle(hive.QueenPresent, 0.6, time.Now().UTC()); err != nil {
		t.Fatal(err)
	}
}

func TestServerRejectsWrongFirstFrame(t *testing.T) {
	s := startServer(t, DefaultServerConfig())
	conn := rawDial(t, s.Addr())
	// A syntactically valid frame of the wrong type opens the session.
	if err := proto.Encode(conn, proto.TypeSensorReport, proto.SensorReport{
		HiveID: "rude", Time: time.Now()}, nil); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	f, err := proto.Decode(conn)
	if err != nil {
		t.Fatalf("no error frame before drop: %v", err)
	}
	if f.Type != proto.TypeError {
		t.Fatalf("reply = %v, want error", f.Type)
	}
}

func TestServerRejectsSampleCountMismatch(t *testing.T) {
	s := startServer(t, DefaultServerConfig())
	conn := rawDial(t, s.Addr())
	if err := proto.Encode(conn, proto.TypeHello, proto.Hello{
		HiveID: "liar", WakePeriodSeconds: 300, Version: 1}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := proto.Decode(conn); err != nil { // welcome
		t.Fatal(err)
	}
	// Declare 1000 samples but ship 10.
	raw := proto.PCMEncode(make([]float64, 10))
	if err := proto.Encode(conn, proto.TypeAudioUpload, proto.AudioUpload{
		HiveID: "liar", Time: time.Now(), SampleRate: 22050, Samples: 1000,
	}, raw); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	f, err := proto.Decode(conn)
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != proto.TypeError {
		t.Fatalf("reply = %v, want error", f.Type)
	}
}

func TestServerRejectsOddPCM(t *testing.T) {
	s := startServer(t, DefaultServerConfig())
	conn := rawDial(t, s.Addr())
	if err := proto.Encode(conn, proto.TypeHello, proto.Hello{
		HiveID: "odd", WakePeriodSeconds: 300, Version: 1}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := proto.Decode(conn); err != nil {
		t.Fatal(err)
	}
	if err := proto.Encode(conn, proto.TypeAudioUpload, proto.AudioUpload{
		HiveID: "odd", Time: time.Now(), SampleRate: 22050, Samples: 1,
	}, []byte{0x01}); err != nil { // one byte: not valid 16-bit PCM
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	f, err := proto.Decode(conn)
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != proto.TypeError {
		t.Fatalf("reply = %v, want error", f.Type)
	}
}

func TestServerSurvivesAbruptDisconnect(t *testing.T) {
	s := startServer(t, DefaultServerConfig())
	// Connect, say hello, then vanish mid-session.
	conn := rawDial(t, s.Addr())
	if err := proto.Encode(conn, proto.TypeHello, proto.Hello{
		HiveID: "ghost", WakePeriodSeconds: 300, Version: 1}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := proto.Decode(conn); err != nil {
		t.Fatal(err)
	}
	_ = conn.Close()

	// The server keeps serving.
	agent, err := Dial(s.Addr(), DefaultAgentConfig("survivor"))
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()
	res, err := agent.RunCycle(hive.QueenLost, 0.5, time.Now().UTC())
	if err != nil {
		t.Fatal(err)
	}
	if res.QueenPresent {
		t.Fatal("verdict lost after another session crashed")
	}
}
