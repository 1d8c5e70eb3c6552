package spi

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestStaticWireRoundtrip(t *testing.T) {
	payload := []byte{1, 2, 3, 4}
	msg := AppendMessage(nil, Static, 7, payload)
	if len(msg) != StaticHeaderBytes+4 {
		t.Fatalf("wire length %d, want %d", len(msg), StaticHeaderBytes+4)
	}
	id, got, err := DecodeStatic(msg, 4)
	if err != nil {
		t.Fatal(err)
	}
	if id != 7 || !bytes.Equal(got, payload) {
		t.Errorf("decoded id=%d payload=%v", id, got)
	}
}

func TestDynamicWireRoundtrip(t *testing.T) {
	payload := []byte{9, 8, 7}
	msg := AppendMessage(nil, Dynamic, 300, payload)
	if len(msg) != DynamicHeaderBytes+3 {
		t.Fatalf("wire length %d, want %d", len(msg), DynamicHeaderBytes+3)
	}
	id, got, err := DecodeDynamic(msg, 16)
	if err != nil {
		t.Fatal(err)
	}
	if id != 300 || !bytes.Equal(got, payload) {
		t.Errorf("decoded id=%d payload=%v", id, got)
	}
}

func TestDynamicHeaderIsLargerThanStatic(t *testing.T) {
	// The paper's design point: static edges save the size field.
	if DynamicHeaderBytes <= StaticHeaderBytes {
		t.Error("dynamic header should cost more than static")
	}
	if HeaderBytes(Static) != StaticHeaderBytes || HeaderBytes(Dynamic) != DynamicHeaderBytes {
		t.Error("HeaderBytes mapping wrong")
	}
}

func TestDecodeStaticErrors(t *testing.T) {
	if _, _, err := DecodeStatic([]byte{1}, 0); err == nil {
		t.Error("short message should fail")
	}
	msg := AppendMessage(nil, Static, 1, []byte{1, 2})
	if _, _, err := DecodeStatic(msg, 3); err == nil {
		t.Error("size mismatch should fail")
	}
}

func TestDecodeDynamicErrors(t *testing.T) {
	if _, _, err := DecodeDynamic([]byte{1, 2, 3}, 10); err == nil {
		t.Error("short message should fail")
	}
	msg := AppendMessage(nil, Dynamic, 1, make([]byte, 8))
	if _, _, err := DecodeDynamic(msg, 4); err == nil {
		t.Error("bound violation should fail")
	}
	// Corrupt the size field.
	msg[2] = 99
	if _, _, err := DecodeDynamic(msg, 1000); err == nil {
		t.Error("header/body mismatch should fail")
	}
}

func TestModeString(t *testing.T) {
	if Static.String() != "SPI_static" || Dynamic.String() != "SPI_dynamic" {
		t.Errorf("mode strings: %s %s", Static, Dynamic)
	}
}

func TestProtocolString(t *testing.T) {
	if BBS.String() != "SPI_BBS" || UBS.String() != "SPI_UBS" {
		t.Errorf("protocol strings: %s %s", BBS, UBS)
	}
}

func TestWireRoundtripProperty(t *testing.T) {
	f := func(seed int64, id uint16, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		payload := make([]byte, int(n))
		r.Read(payload)
		// static
		sid, sp, err := DecodeStatic(AppendMessage(nil, Static, EdgeID(id), payload), len(payload))
		if err != nil || sid != EdgeID(id) || !bytes.Equal(sp, payload) {
			return false
		}
		// dynamic
		did, dp, err := DecodeDynamic(AppendMessage(nil, Dynamic, EdgeID(id), payload), 255)
		if err != nil || did != EdgeID(id) || !bytes.Equal(dp, payload) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
