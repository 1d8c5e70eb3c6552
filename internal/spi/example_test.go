package spi_test

import (
	"fmt"

	"repro/internal/spi"
)

// Open an SPI_dynamic edge on the software runtime and move a
// variable-size payload through it.
func Example() {
	rt := spi.NewRuntime()
	tx, rx, err := rt.Init(spi.EdgeConfig{
		ID: 1, Mode: spi.Dynamic, MaxBytes: 64,
		Protocol: spi.BBS, Capacity: 4,
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	go tx.Send([]byte("hello, dataflow"))
	payload, _ := rx.Receive()
	fmt.Printf("%s (%d bytes over a %d-byte header)\n",
		payload, len(payload), spi.DynamicHeaderBytes)
	// Output:
	// hello, dataflow (15 bytes over a 6-byte header)
}

// SPI_static messages carry only the edge ID; the size is compile-time
// knowledge.
func ExampleAppendMessage() {
	msg := spi.AppendMessage(nil, spi.Static, 7, []byte{1, 2, 3, 4})
	id, payload, _ := spi.DecodeStatic(msg, 4)
	fmt.Println("edge", id, "payload", payload, "wire bytes", len(msg))
	// Output:
	// edge 7 payload [1 2 3 4] wire bytes 6
}
