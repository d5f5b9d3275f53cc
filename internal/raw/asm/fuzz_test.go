// Fuzz harness for the tile-assembly interpreter: random-but-valid
// instruction streams, lowered through the cycle-accurate executor with a
// loopback switch program, must never panic, never desync the program
// counter, never write $0, and never retire more instructions than cycles
// elapsed.
package asm_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/mem"
	"repro/internal/raw"
	"repro/internal/raw/asm"
)

// genProgram maps fuzz bytes onto valid tile assembly. Every instruction
// consumes four bytes: opcode selector, dst, src, immediate/target. Every
// instruction is labeled so branch/jump targets (taken mod the program
// length) always resolve. Two lowerings are deliberately excluded:
//
//   - jr, whose computed target is architecturally allowed to leave the
//     program (defined to halt), which would make the pc-bounds oracle
//     meaningless;
//   - ALU ops with both a network source and the network destination,
//     which the interpreter rejects by design (see lowerALU).
func genProgram(data []byte) string {
	n := len(data) / 4
	if n == 0 {
		return "halt\n"
	}
	if n > 48 {
		n = 48
	}
	alu := []string{"add", "sub", "or", "and", "xor", "sll", "srl", "mul", "slt", "sltu"}
	reg := func(b byte) string { return fmt.Sprintf("$%d", 1+int(b)%8) }
	var b strings.Builder
	for i := 0; i < n; i++ {
		op, d, s, imm := data[4*i], data[4*i+1], data[4*i+2], int8(data[4*i+3])
		fmt.Fprintf(&b, "L%d: ", i)
		tgt := int(imm&0x7f) % n
		switch op % 13 {
		case 0:
			fmt.Fprintf(&b, "%s %s, %s, %s\n", alu[int(d)%len(alu)], reg(d), reg(s), reg(d+s))
		case 1:
			fmt.Fprintf(&b, "%si %s, %s, %d\n", []string{"add", "or", "and", "xor", "slt"}[int(d)%5], reg(d), reg(s), imm)
		case 2:
			fmt.Fprintf(&b, "li %s, %d\n", reg(d), imm)
		case 3:
			fmt.Fprintf(&b, "move %s, %s\n", reg(d), reg(s))
		case 4: // send: computes into the network, balanced by case 5
			fmt.Fprintf(&b, "or $csto, $0, %s\n", reg(s))
		case 5: // receive from the loopback switch
			fmt.Fprintf(&b, "and %s, %s, $csti\n", reg(d), reg(s))
		case 6:
			fmt.Fprintf(&b, "lw %s, %d($%d)\n", reg(d), int(s)%64*4, 1+int(d)%4)
		case 7:
			fmt.Fprintf(&b, "sw %s, %d($%d)\n", reg(d), int(s)%64*4, 1+int(d)%4)
		case 8:
			fmt.Fprintf(&b, "beq %s, %s, L%d\n", reg(d), reg(s), tgt)
		case 9:
			fmt.Fprintf(&b, "bne %s, %s, L%d\n", reg(d), reg(s), tgt)
		case 10:
			fmt.Fprintf(&b, "jmp L%d\n", tgt)
		case 11:
			fmt.Fprintf(&b, "jal L%d\n", tgt)
		case 12:
			b.WriteString("nop\n")
		}
	}
	b.WriteString("halt\n")
	return b.String()
}

func FuzzInterp(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3})
	f.Add([]byte{4, 5, 6, 7, 5, 1, 2, 3})             // send then recv
	f.Add([]byte{10, 0, 0, 0, 12, 0, 0, 0})           // jmp loop over nop
	f.Add([]byte{6, 1, 2, 3, 7, 2, 3, 4, 8, 1, 1, 0}) // lw/sw/beq
	f.Add([]byte{2, 3, 0, 40, 11, 0, 0, 1, 9, 4, 5, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		src := genProgram(data)
		chip := raw.NewChip(raw.DefaultConfig())
		mem.Attach(chip, 20) // lw/sw miss to DRAM; unattached they would block forever
		// Loopback: anything the processor sends comes straight back, so
		// sends can always drain and receives can be satisfied.
		if err := chip.Tile(0).SetSwitchProgram(asm.MustAssembleSwitch("L: jump L with $csto->$csti")); err != nil {
			t.Fatal(err)
		}
		it, err := asm.Load(chip.Tile(0), src)
		if err != nil {
			t.Fatalf("generated program failed to assemble:\n%s\n%v", src, err)
		}
		plen := it.ProgramLen()
		var retired int64
		for chunk := 0; chunk < 32; chunk++ {
			chip.Run(16)
			if pc := it.PC(); pc < 0 || pc > plen {
				t.Fatalf("pc %d out of [0,%d] after %d cycles:\n%s", pc, plen, chip.Cycle(), src)
			}
			if it.Reg(0) != 0 {
				t.Fatalf("$0 = %d, want 0:\n%s", it.Reg(0), src)
			}
			if it.Retired < retired {
				t.Fatalf("Retired went backwards: %d -> %d", retired, it.Retired)
			}
			retired = it.Retired
			if it.Halted() {
				break
			}
		}
		if it.Retired > chip.Cycle() {
			t.Fatalf("retired %d instructions in %d cycles (min 1 cycle each):\n%s", it.Retired, chip.Cycle(), src)
		}
	})
}
