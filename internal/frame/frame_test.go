package frame

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"testing"
	"testing/iotest"
	"time"
)

// testRule accepts kinds 1 and 2; kind 1 is a control kind with an
// exact 16-byte payload, kind 2 carries any non-empty payload.
func testRule(kind byte, n int) error {
	switch {
	case kind != 1 && kind != 2:
		return fmt.Errorf("unknown kind %d", kind)
	case kind == 1 && n != 16:
		return fmt.Errorf("%d-byte control payload", n)
	case kind == 2 && n == 0:
		return errors.New("empty data payload")
	}
	return nil
}

// header builds a bare frame header declaring n payload bytes.
func header(kind byte, n uint32) []byte {
	h := []byte{kind, 0, 0, 0, 0, 0, 0, 0, 0}
	binary.LittleEndian.PutUint32(h[1:], n)
	return h
}

func TestAppendDecodeRoundTrip(t *testing.T) {
	b := Append([]byte("prefix"), 2, []byte("ab"), nil, []byte("cde"))
	b = b[len("prefix"):]
	kind, payload, n, err := Decode(b, testRule)
	if err != nil || kind != 2 || string(payload) != "abcde" || n != len(b) || n != HeaderSize+5 {
		t.Fatalf("Decode = kind %d payload %q n %d err %v", kind, payload, n, err)
	}
	for cut := 0; cut < len(b); cut++ {
		if _, _, _, err := Decode(b[:cut], testRule); !errors.Is(err, ErrShort) {
			t.Fatalf("prefix of %d bytes: err %v, want ErrShort", cut, err)
		}
	}
	bad := bytes.Clone(b)
	bad[len(bad)-1] ^= 1
	if _, _, _, err := Decode(bad, testRule); err == nil || errors.Is(err, ErrShort) {
		t.Fatalf("corrupt payload: err %v, want a CRC error", err)
	}
}

// A header the rule refuses, or one declaring more than MaxPayload, is
// corrupt from its HeaderSize bytes alone.
func TestDecodeRejectsHeaderAlone(t *testing.T) {
	for _, h := range [][]byte{
		header(1, 200<<20),        // control kind, 200 MB
		header(2, MaxPayload+1),   // over the cap
		header(7, 16),             // unknown kind
		header(2, 0),              // empty data frame
		header(1, 15),             // short control frame
		header(2, ^uint32(0)),     // u32 max
		header(1, MaxPayload+100), // over the cap on a control kind
	} {
		if _, _, _, err := Decode(h, testRule); err == nil || errors.Is(err, ErrShort) {
			t.Fatalf("header %x: err %v, want a non-short error", h, err)
		}
	}
}

func TestReaderYieldsWholeFrames(t *testing.T) {
	big := bytes.Repeat([]byte{0xab}, 100<<10) // larger than the initial buffer
	var stream []byte
	var want [][]byte
	for i := 0; i < 20; i++ {
		var p []byte
		switch i % 3 {
		case 0:
			p = bytes.Repeat([]byte{byte(i)}, 16)
			stream = Append(stream, 1, p)
		case 1:
			p = []byte(fmt.Sprint("data frame ", i))
			stream = Append(stream, 2, p)
		default:
			p = big
			stream = Append(stream, 2, p)
		}
		want = append(want, p)
	}
	for name, r := range map[string]func() io.Reader{
		"whole":   func() io.Reader { return bytes.NewReader(stream) },
		"onebyte": func() io.Reader { return iotest.OneByteReader(bytes.NewReader(stream)) },
		"half":    func() io.Reader { return iotest.HalfReader(bytes.NewReader(stream)) },
		"dataerr": func() io.Reader { return iotest.DataErrReader(bytes.NewReader(stream)) },
	} {
		rd := NewReader(r(), testRule)
		for i, p := range want {
			_, got, err := rd.Next()
			if err != nil || !bytes.Equal(got, p) {
				t.Fatalf("%s: frame %d: %d bytes, err %v; want %d bytes", name, i, len(got), err, len(p))
			}
		}
		if _, _, err := rd.Next(); err != io.EOF {
			t.Fatalf("%s: after the last frame err %v, want io.EOF", name, err)
		}
	}
}

func TestReaderTornTail(t *testing.T) {
	stream := Append(nil, 2, []byte("whole"))
	stream = Append(stream, 2, []byte("torn frame"))
	rd := NewReader(bytes.NewReader(stream[:len(stream)-3]), testRule)
	if _, p, err := rd.Next(); err != nil || string(p) != "whole" {
		t.Fatalf("first frame %q err %v", p, err)
	}
	if _, _, err := rd.Next(); err != io.ErrUnexpectedEOF {
		t.Fatalf("torn frame err %v, want io.ErrUnexpectedEOF", err)
	}
}

// The Reader refuses a malformed header as soon as its HeaderSize bytes
// arrive, without waiting for (or buffering) the declared payload.
func TestReaderRejectsHeaderBeforePayload(t *testing.T) {
	for _, h := range [][]byte{header(1, 200<<20), header(2, MaxPayload+1)} {
		pr, pw := io.Pipe()
		go pw.Write(h) // the payload never follows
		done := make(chan error, 1)
		go func() {
			_, _, err := NewReader(pr, testRule).Next()
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil || errors.Is(err, ErrShort) || err == io.ErrUnexpectedEOF {
				t.Fatalf("header %x: err %v, want a corrupt-header error", h, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("header %x: Reader blocked waiting for the payload", h)
		}
		pr.Close()
	}
}
