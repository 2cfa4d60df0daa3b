// Package proto defines the wire protocol between a smart beehive's edge
// agent and the cloud service: a length-prefixed binary framing with
// JSON-encoded message bodies and a raw binary channel for audio
// payloads.
//
// The paper's system uploads sensor batches, audio and images over Wi-Fi
// each cycle (Figure 4's sequence); this protocol is the concrete
// realization used by internal/hivenet's runnable client and server.
//
// Frame layout (big endian):
//
//	magic   uint32  'BEE1'
//	type    uint8   message type
//	bodyLen uint32  JSON body length
//	rawLen  uint32  raw payload length
//	body    []byte  JSON
//	raw     []byte  opaque payload (PCM samples, image bytes)
package proto

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"
)

// Magic identifies a beesim frame.
const Magic uint32 = 0x42454531 // "BEE1"

// MaxBody and MaxRaw bound frame sizes defensively.
const (
	MaxBody = 1 << 20  // 1 MiB of JSON
	MaxRaw  = 64 << 20 // 64 MiB of payload
)

// Type enumerates the protocol messages.
type Type uint8

// Message types.
const (
	// TypeHello opens a session: the agent introduces its hive and asks
	// for a time slot.
	TypeHello Type = iota + 1
	// TypeWelcome is the server's reply: assigned slot and parameters.
	TypeWelcome
	// TypeSensorReport carries one cycle's scalar readings.
	TypeSensorReport
	// TypeAudioUpload carries one audio clip for cloud inference; the
	// raw payload is 16-bit little-endian PCM.
	TypeAudioUpload
	// TypeResult carries a queen-detection verdict (either direction:
	// agent reporting an edge inference, or server answering an upload).
	TypeResult
	// TypeAck is a bare acknowledgement.
	TypeAck
	// TypeError reports a failure; the body is an ErrorBody.
	TypeError
	// TypeBye closes a session gracefully.
	TypeBye
	// TypeReject is the server's typed 429-style backpressure answer:
	// the request was well-formed but admission control refused it (over
	// the inflight budget, session cap reached). Unlike TypeError the
	// session stays open; the body is a RejectBody telling the client
	// why and how long to back off before retrying.
	TypeReject
)

// String names the message type.
func (t Type) String() string {
	switch t {
	case TypeHello:
		return "hello"
	case TypeWelcome:
		return "welcome"
	case TypeSensorReport:
		return "sensor-report"
	case TypeAudioUpload:
		return "audio-upload"
	case TypeResult:
		return "result"
	case TypeAck:
		return "ack"
	case TypeError:
		return "error"
	case TypeBye:
		return "bye"
	case TypeReject:
		return "reject"
	default:
		return fmt.Sprintf("type(%d)", uint8(t))
	}
}

// Hello opens a session.
type Hello struct {
	HiveID string `json:"hive_id"`
	// WakePeriodSeconds is the agent's cycle length, for slot planning.
	WakePeriodSeconds float64 `json:"wake_period_seconds"`
	// Version guards compatibility.
	Version int `json:"version"`
}

// Welcome assigns the session's parameters.
type Welcome struct {
	// Slot is the time-slot index the hive must use.
	Slot int `json:"slot"`
	// MaxParallel echoes the server's per-slot capacity.
	MaxParallel int `json:"max_parallel"`
}

// SensorReport is one cycle's scalar readings.
type SensorReport struct {
	HiveID       string    `json:"hive_id"`
	Time         time.Time `json:"time"`
	InsideTempC  float64   `json:"inside_temp_c"`
	InsideRH     float64   `json:"inside_rh"`
	OutsideTempC float64   `json:"outside_temp_c"`
	BatterySoC   float64   `json:"battery_soc"`
	// Traceparent is the W3C trace-context header of the agent's
	// wake-up span, empty when the agent runs untraced. omitempty
	// keeps untraced frames byte-identical to earlier releases.
	Traceparent string `json:"traceparent,omitempty"`
}

// AudioUpload describes the raw PCM payload accompanying the frame.
type AudioUpload struct {
	HiveID string    `json:"hive_id"`
	Time   time.Time `json:"time"`
	// SampleRate is the clip's rate in Hz. The cloud server's detector
	// is trained at audio.SampleRate and rejects any other rate before
	// decoding the payload: features at a foreign rate mean nothing to
	// it, and each new rate would cost a new front-end plan.
	SampleRate int `json:"sample_rate"`
	// Samples is the PCM sample count in the raw payload.
	Samples int `json:"samples"`
	// Traceparent propagates the upload span's W3C trace context so the
	// server can join its handler span into the same trace; empty (and
	// absent from the wire) when the agent runs untraced.
	Traceparent string `json:"traceparent,omitempty"`
}

// Result is a queen-detection verdict.
type Result struct {
	HiveID       string    `json:"hive_id"`
	Time         time.Time `json:"time"`
	QueenPresent bool      `json:"queen_present"`
	// Confidence is the decision margin mapped to [0, 1].
	Confidence float64 `json:"confidence"`
	// ComputedAt names the placement that produced the verdict
	// ("edge" or "cloud").
	ComputedAt string `json:"computed_at"`
	// Traceparent echoes the request's trace context (server span for
	// cloud verdicts), empty on untraced sessions.
	Traceparent string `json:"traceparent,omitempty"`
}

// ErrorBody carries a failure description.
type ErrorBody struct {
	Message string `json:"message"`
}

// Reject codes carried by a RejectBody.
const (
	// RejectOverCapacity: the server's inflight upload budget is
	// exhausted; retry the upload after backing off.
	RejectOverCapacity = "over_capacity"
	// RejectServerFull: the server's session cap is reached; the
	// connection is closed after this frame.
	RejectServerFull = "server_full"
)

// RejectBody is the payload of a TypeReject frame: a machine-readable
// code, a human-readable message, and a backoff hint in seconds (zero
// means "use your own policy").
type RejectBody struct {
	Code        string  `json:"code"`
	Message     string  `json:"message,omitempty"`
	RetryAfterS float64 `json:"retry_after_s,omitempty"`
}

// Frame is one decoded protocol frame.
type Frame struct {
	Type Type
	Body []byte // JSON
	Raw  []byte // opaque payload
}

// Encode marshals body to JSON and writes a frame to w.
func Encode(w io.Writer, t Type, body any, raw []byte) error {
	var bodyBytes []byte
	if body != nil {
		var err error
		bodyBytes, err = json.Marshal(body)
		if err != nil {
			return fmt.Errorf("proto: marshaling %v body: %w", t, err)
		}
	}
	if len(bodyBytes) > MaxBody {
		return fmt.Errorf("proto: %v body %d bytes exceeds limit", t, len(bodyBytes))
	}
	if len(raw) > MaxRaw {
		return fmt.Errorf("proto: %v raw payload %d bytes exceeds limit", t, len(raw))
	}
	header := make([]byte, 13)
	binary.BigEndian.PutUint32(header[0:4], Magic)
	header[4] = byte(t)
	binary.BigEndian.PutUint32(header[5:9], uint32(len(bodyBytes)))
	binary.BigEndian.PutUint32(header[9:13], uint32(len(raw)))
	if _, err := w.Write(header); err != nil {
		return err
	}
	if len(bodyBytes) > 0 {
		if _, err := w.Write(bodyBytes); err != nil {
			return err
		}
	}
	if len(raw) > 0 {
		if _, err := w.Write(raw); err != nil {
			return err
		}
	}
	return nil
}

// Decode reads one frame from r.
func Decode(r io.Reader) (Frame, error) {
	header := make([]byte, 13)
	if _, err := io.ReadFull(r, header); err != nil {
		return Frame{}, err
	}
	if got := binary.BigEndian.Uint32(header[0:4]); got != Magic {
		return Frame{}, fmt.Errorf("proto: bad magic %#x", got)
	}
	f := Frame{Type: Type(header[4])}
	bodyLen := binary.BigEndian.Uint32(header[5:9])
	rawLen := binary.BigEndian.Uint32(header[9:13])
	if bodyLen > MaxBody {
		return Frame{}, fmt.Errorf("proto: body %d bytes exceeds limit", bodyLen)
	}
	if rawLen > MaxRaw {
		return Frame{}, fmt.Errorf("proto: raw payload %d bytes exceeds limit", rawLen)
	}
	if bodyLen > 0 {
		f.Body = make([]byte, bodyLen)
		if _, err := io.ReadFull(r, f.Body); err != nil {
			return Frame{}, fmt.Errorf("proto: reading body: %w", err)
		}
	}
	if rawLen > 0 {
		f.Raw = make([]byte, rawLen)
		if _, err := io.ReadFull(r, f.Raw); err != nil {
			return Frame{}, fmt.Errorf("proto: reading raw payload: %w", err)
		}
	}
	return f, nil
}

// Unmarshal decodes the frame's JSON body into dst, checking the type.
func (f Frame) Unmarshal(want Type, dst any) error {
	if f.Type != want {
		return fmt.Errorf("proto: got %v, want %v", f.Type, want)
	}
	if len(f.Body) == 0 {
		return errors.New("proto: empty body")
	}
	return json.Unmarshal(f.Body, dst)
}

// PCMEncode converts float samples in [-1, 1] to 16-bit little-endian
// PCM bytes (the audio-upload payload format).
func PCMEncode(samples []float64) []byte {
	out := make([]byte, 2*len(samples))
	for i, v := range samples {
		if v > 1 {
			v = 1
		}
		if v < -1 {
			v = -1
		}
		binary.LittleEndian.PutUint16(out[2*i:], uint16(int16(v*32767)))
	}
	return out
}

// PCMDecode converts 16-bit little-endian PCM bytes back to floats.
func PCMDecode(raw []byte) ([]float64, error) {
	if len(raw)%2 != 0 {
		return nil, errors.New("proto: odd PCM byte count")
	}
	out := make([]float64, len(raw)/2)
	for i := range out {
		out[i] = float64(int16(binary.LittleEndian.Uint16(raw[2*i:]))) / 32767
	}
	return out, nil
}
