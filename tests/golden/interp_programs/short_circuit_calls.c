/* Short-circuit operators whose right side calls and yields. */
int cnt;
int bump(int v) { cnt = cnt + 1; return v; }
void worker(int pid)
{
    int k;
    for (k = 0; k < 5; k++) {
        if (bump(k % 2) && bump(1) || bump(pid)) { cnt = cnt + 100; }
        if (!(bump(0) || k > 2)) { cnt = cnt + 1000; }
    }
}
int main()
{
    int p; int a;
    cnt = 0;
    for (p = 0; p < nprocs(); p++) { create(worker, p); }
    wait_for_end();
    a = (cnt > 3) && (bump(2) == 2);
    print(cnt, a, !a, 1 || bump(9), 0 && bump(9));
    return 0;
}
