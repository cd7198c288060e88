// File-transfer example over the §5.2 Berkeley-socket emulation: a host
// process uploads a "file" through the familiar connect/send API while all
// TCP processing — segmentation, checksums, acks, retransmission — runs on
// the communication processors. The fiber is made lossy mid-transfer to
// show the offloaded stack recovering without the hosts noticing.
//
// Run with: go run ./examples/filetransfer
package main

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"log"

	"nectar"
	"nectar/internal/obs"
	"nectar/internal/proto/wire"
	"nectar/internal/rt/exec"
	"nectar/internal/rt/threads"
	"nectar/internal/sim"
)

const fileSize = 96 << 10 // 96 KB

func main() {
	cl := nectar.NewCluster(nil)
	a := cl.AddNode()
	b := cl.AddNode()

	// Synthesize the "file" and its checksum.
	file := make([]byte, fileSize)
	for i := range file {
		file[i] = byte(i*2654435761 + i>>8)
	}
	wantSum := crc32.ChecksumIEEE(file)

	ln, err := b.Sockets.Listen(2049)
	if err != nil {
		log.Fatal(err)
	}

	done := false
	var received []byte
	var elapsed sim.Duration
	b.Host.Run("fileserver", func(t *threads.Thread) {
		ctx := exec.OnHost(t, b.Host)
		conn, err := ln.Accept(ctx)
		if err != nil {
			cl.K.Fatalf("accept: %v", err)
		}
		start := t.Now()
		for {
			chunk := conn.Recv(ctx)
			if chunk == nil {
				break
			}
			received = append(received, chunk...)
		}
		elapsed = sim.Duration(t.Now() - start)
		done = true
	})

	a.Host.Run("uploader", func(t *threads.Thread) {
		ctx := exec.OnHost(t, a.Host)
		conn, err := a.Sockets.Connect(ctx, wire.NodeIP(b.ID), 2049)
		if err != nil {
			cl.K.Fatalf("connect: %v", err)
		}
		// Make the fiber lossy for the middle of the transfer.
		a.CAB.OutLink().SetFaultFn(func(seq uint64) (bool, bool) {
			return seq%23 == 7, seq%31 == 11 // periodic drops and corruptions
		})
		for off := 0; off < len(file); off += 8192 {
			endOff := off + 8192
			if endOff > len(file) {
				endOff = len(file)
			}
			if err := conn.Send(ctx, file[off:endOff]); err != nil {
				cl.K.Fatalf("send: %v", err)
			}
		}
		a.CAB.OutLink().SetFaultFn(nil)
		if err := conn.Close(ctx); err != nil {
			cl.K.Fatalf("close: %v", err)
		}
	})

	for !done {
		if err := cl.RunFor(50 * sim.Millisecond); err != nil {
			log.Fatal(err)
		}
		if cl.Now() > sim.Time(120*sim.Second) {
			log.Fatal("transfer stalled")
		}
	}

	gotSum := crc32.ChecksumIEEE(received)
	snap := cl.MetricsSnapshot()
	retrans := snap.Value(obs.LayerTCP, "retransmits", a.CAB.Scope())
	crcErr := snap.Value(obs.LayerCAB, "crc_errors", b.CAB.Scope())
	fmt.Printf("transferred %d bytes in %v virtual time (%.1f Mbit/s effective)\n",
		len(received), elapsed, float64(len(received))*8/elapsed.Seconds()/1e6)
	fmt.Printf("integrity: sent crc32=%08x received crc32=%08x match=%v bytes-equal=%v\n",
		wantSum, gotSum, wantSum == gotSum, bytes.Equal(received, file))
	fmt.Printf("the CABs absorbed the damage: %d TCP retransmissions, %d hardware CRC rejections\n",
		retrans, crcErr)
}
